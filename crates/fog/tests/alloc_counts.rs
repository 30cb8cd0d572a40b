//! Allocation-count proof for the sync engine's steady state.
//!
//! The indexed round/ack machinery keeps its working set in reusable
//! structures — the backlog window, the deadline heap and the round- and
//! ack-scoped scratch vectors — so a quiet sync round (nothing due,
//! nothing new, empty inbox) must allocate exactly zero times once those
//! are warm, and a full window's cycle (enqueue, round, cloud apply, ack)
//! only the buffers each record owns. A counting global allocator
//! verifies both.
//!
//! Everything runs inside one `#[test]` so concurrent test threads cannot
//! pollute the shared counter (pattern from
//! `crates/obs/tests/alloc_counts.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use swamp_fog::sync::{CloudStore, FogSync};
use swamp_net::link::LinkSpec;
use swamp_net::network::Network;
use swamp_sim::{SimDuration, SimTime};

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
fn warm_sync_allocates_only_per_record_buffers() {
    steady_state_sync_round_is_zero_alloc();
    full_window_cycle_allocates_only_per_record_buffers();
}

fn steady_state_sync_round_is_zero_alloc() {
    let mut net = Network::new(7);
    net.add_node("fog");
    net.add_node("cloud");
    net.connect("fog", "cloud", LinkSpec::farm_lan());
    let mut sync = FogSync::builder("fog", "cloud")
        .base_timeout(SimDuration::from_secs(3600))
        .jitter(0.0)
        .build();
    let mut cloud = CloudStore::new("cloud");

    // Warmup: run a real drain so the scratch vector and obs plumbing
    // reach their steady capacity, then park a handful of records in
    // flight with a far-off retry deadline.
    let mut now = SimTime::ZERO;
    for i in 0..256 {
        sync.enqueue(now, "probe", vec![i as u8]).unwrap();
    }
    for _ in 0..8 {
        sync.sync_round(&mut net, now, 64);
        now += SimDuration::from_secs(1);
        net.advance_to(now);
        cloud.process(&mut net, now);
        now += SimDuration::from_secs(1);
        net.advance_to(now);
        sync.poll_acks(&mut net, now);
        now += SimDuration::from_secs(1);
    }
    for i in 0..32 {
        sync.enqueue(now, "probe", vec![i as u8]).unwrap();
    }
    sync.sync_round(&mut net, now, 64);
    assert_eq!(sync.in_flight(), 32, "records parked awaiting their timer");

    // The counter is process-wide and the libtest harness may allocate on
    // its own threads concurrently with the measured window, so take the
    // minimum over a few windows: a hot path that really allocated would
    // do so in every window (10k+ times), harness noise is transient.
    let mut min_calls = u64::MAX;
    for _ in 0..3 {
        let (calls, ()) = alloc_calls(|| {
            for _ in 0..10_000u64 {
                now += SimDuration::from_millis(10);
                // Quiet round: timers far in the future, nothing left to
                // admit, nothing to transmit — and an empty-inbox poll.
                let sent = sync.sync_round(&mut net, now, 64);
                assert_eq!(sent, 0);
                let outcome = sync.poll_acks(&mut net, now);
                assert_eq!(outcome.released, 0);
            }
        });
        min_calls = min_calls.min(calls);
        if min_calls == 0 {
            break;
        }
    }
    assert_eq!(
        min_calls, 0,
        "a warm steady-state sync round must not allocate — \
         {min_calls} allocations in the cleanest of 3 10k-round windows"
    );
    assert_eq!(sync.in_flight(), 32, "nothing fired during quiet rounds");
}

/// A warm full-window cycle — enqueue a window of records, one round that
/// sends them, the cloud's apply and its one ack, the fog's ack drain —
/// allocates three buffers per record and nothing per slot of the
/// backlog: the key copied at enqueue, the wire buffer encoded at
/// transmission, and the key the cloud decodes out of it (the decoded
/// record keeps the wire buffer as its payload, and the payload enqueued
/// was the caller's). Per window on top: the ack payload, the fog's inbox
/// drain, and now and then the cloud history's doubling. A backlog that
/// allocates per insert or per tree node (a `BTreeMap` node holds at most
/// 11 records) adds hundreds per window and fails it.
fn full_window_cycle_allocates_only_per_record_buffers() {
    const WINDOW: usize = swamp_fog::sync::DEFAULT_WINDOW;
    const PER_RECORD: u64 = 3;
    const PER_WINDOW: u64 = 3;
    let mut net = Network::new(11);
    net.add_node("fog");
    net.add_node("cloud");
    net.connect("fog", "cloud", LinkSpec::cloud_backbone());
    let mut sync = FogSync::builder("fog", "cloud")
        .base_timeout(SimDuration::from_secs(3600))
        .jitter(0.0)
        .build();
    let mut cloud = CloudStore::new("cloud");
    let mut now = SimTime::ZERO;
    let mut cycle = |payloads: Vec<Vec<u8>>, now: &mut SimTime| {
        for payload in payloads {
            sync.enqueue(*now, "urn:swamp:device:probe-0001", payload)
                .unwrap();
        }
        assert_eq!(sync.sync_round(&mut net, *now, usize::MAX), WINDOW);
        *now += SimDuration::from_secs(1);
        net.advance_to(*now);
        assert_eq!(cloud.process(&mut net, *now), WINDOW);
        *now += SimDuration::from_secs(1);
        net.advance_to(*now);
        assert_eq!(sync.poll_acks(&mut net, *now).released, WINDOW);
        assert_eq!(sync.pending(), 0);
    };
    let payloads = || (0..WINDOW).map(|i| vec![i as u8; 32]).collect::<Vec<_>>();
    // Warm-up: the window, the heap, the scratch vectors and the
    // network's queues reach a window's capacity.
    for _ in 0..4 {
        cycle(payloads(), &mut now);
    }
    let mut fewest = u64::MAX;
    for _ in 0..6 {
        let batch = payloads();
        let (calls, ()) = alloc_calls(|| cycle(batch, &mut now));
        fewest = fewest.min(calls);
    }
    let per_record = PER_RECORD * WINDOW as u64;
    println!(
        "full-window cycle: {fewest} allocations for {WINDOW} records \
         ({per_record} per-record buffers + {} per window)",
        fewest.saturating_sub(per_record)
    );
    assert!(
        (per_record..=per_record + PER_WINDOW).contains(&fewest),
        "a warm full-window cycle allocated {fewest} times for {WINDOW} records; \
         {PER_RECORD} per record plus at most {PER_WINDOW} per window expected"
    );
}
