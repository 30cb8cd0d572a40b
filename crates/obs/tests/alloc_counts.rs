//! Allocation-count proof for the instrumented hot path.
//!
//! The whole point of typed handles over a string-keyed registry is
//! that a hot-path update is an indexed add: no `String` allocation per
//! `BTreeMap` miss, no key hashing, nothing on the heap.
//! A counting global allocator verifies that steady-state counter,
//! gauge, histogram and span updates allocate exactly zero times.
//!
//! Everything runs inside one `#[test]` so concurrent test threads cannot
//! pollute the shared counter (pattern from
//! `crates/core/tests/alloc_counts.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use swamp_obs::Obs;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_calls<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let r = f();
    (ALLOC_CALLS.load(Ordering::Relaxed) - before, r)
}

#[test]
fn steady_state_instrument_updates_are_zero_alloc() {
    let mut obs = Obs::new();
    let sent = obs.counter("net.sent");
    let pending = obs.gauge("sync.pending");
    let latency = obs.hist("net.latency_ms", 0.0, 1000.0, 64);
    let pump = obs.span("platform.pump");
    let ingest = obs.span("platform.ingest");

    // Warmup: settles the span stack Vec and the (pump → ingest) nesting
    // edge's BTreeMap node, the only lazily-allocated bookkeeping.
    for i in 0..64 {
        let t = obs.enter(pump);
        let ti = obs.enter(ingest);
        obs.inc(sent);
        obs.add(sent, 3);
        obs.set(pending, i as f64);
        obs.record(latency, 12.5 + i as f64);
        obs.exit(ti);
        obs.exit(t);
    }

    // The counter is process-wide, and the libtest harness runs on its own
    // threads that may allocate concurrently with the measured window, so a
    // single window can flakily read a handful of stray allocations under
    // load. Take the minimum over a few windows: a hot path that really
    // allocated would do so in *every* window (10k+ times), while harness
    // noise is transient.
    let mut min_calls = u64::MAX;
    let mut rounds_run = 0u64;
    for _ in 0..3 {
        let base = rounds_run;
        let (calls, ()) = alloc_calls(|| {
            for i in 0..10_000u64 {
                let t = obs.enter(pump);
                let ti = obs.enter(ingest);
                obs.inc(sent);
                obs.add(sent, 3);
                obs.set(pending, (base + i) as f64);
                obs.record(latency, 12.5 + (i % 100) as f64);
                obs.exit(ti);
                obs.exit(t);
            }
        });
        rounds_run += 10_000;
        min_calls = min_calls.min(calls);
        if min_calls == 0 {
            break;
        }
    }
    assert_eq!(
        min_calls, 0,
        "counter/gauge/histogram/span updates must be indexed adds — \
         {min_calls} allocations in the cleanest of 3 10k-round windows"
    );
    assert_eq!(obs.value(sent), 64 * 4 + rounds_run * 4);
}
