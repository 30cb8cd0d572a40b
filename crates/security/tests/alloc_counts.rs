//! Allocation-count proofs for the range screen.
//!
//! Every sealed frame passes `DetectorBank::observe_value` once per
//! numeric attribute. The bank keeps one table, its ranges by quantity
//! name, and nothing per device: the lookup borrows the caller's `&str`,
//! so an in-range frame touches the heap exactly zero times, from a
//! device it has seen before or one it never has. (A device's trust and
//! its replay check live in its registry row, and
//! `crates/core/tests/alloc_counts.rs` budgets them inside the sealed
//! frame's leg.) And an alert keeps nothing per alert: a storm of them
//! leaves the bank's live heap where its first thousand left it (the
//! counters and the bounded event ring are all that record it).
//!
//! The tests take one lock so a concurrent test thread cannot pollute
//! the shared counters (pattern from `crates/obs/tests/alloc_counts.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

use swamp_security::detect::RangeValidator;
use swamp_security::pipeline::DetectorBank;
use swamp_sim::SimTime;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, process-wide.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// Held by each test for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn size(bytes: usize) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(size(layout.size()), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(size(layout.size()), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(size(new_size) - size(layout.size()), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const DEVICES: usize = 64;
const QUANTITIES: [(&str, f64); 3] = [
    ("moisture_vwc", 0.25),
    ("battery_fraction", 0.9),
    ("rh_mean_pct", 55.0),
];

/// One frame per device: one steady in-range value per quantity.
/// Returns the allocations it performed.
fn pass(bank: &mut DetectorBank, ids: &[String], round: u64) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for id in ids {
        for (quantity, value) in QUANTITIES {
            let verdict = bank.observe_value(SimTime::from_secs(round), id, quantity, value);
            assert!(!verdict.is_anomalous());
        }
    }
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

/// `DEVICES` ids no earlier window used.
fn fresh_ids(window: u64) -> Vec<String> {
    (0..DEVICES)
        .map(|i| format!("probe-{window}-{i:03}"))
        .collect()
}

#[test]
fn devices_are_observed_without_allocating() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut bank = DetectorBank::new();
    bank.configure_quantity("moisture_vwc", RangeValidator::soil_moisture());
    bank.configure_quantity("battery_fraction", RangeValidator::new(0.0, 1.0));
    bank.configure_quantity("rh_mean_pct", RangeValidator::new(0.0, 100.0));

    // The counter is process-wide and the libtest harness may allocate on
    // its own threads inside a window; a table that allocated per lookup
    // would do so in every window, harness noise is transient. Each
    // first-sight window sends ids the bank has never seen, so a table
    // that kept anything per device (a name index, a device row) would
    // allocate in all three.
    let first_sight = (1..=3).map(|w| pass(&mut bank, &fresh_ids(w), w)).min();
    let seen = fresh_ids(3);
    let steady = (4..=6).map(|round| pass(&mut bank, &seen, round)).min();
    for (what, allocs) in [("never-seen", first_sight), ("seen", steady)] {
        let allocs = allocs.unwrap_or(u64::MAX);
        assert_eq!(
            allocs,
            0,
            "{allocs} allocations in the cleanest pass over {DEVICES} {what} devices \
             ({:.1} per frame)",
            allocs as f64 / DEVICES as f64
        );
    }
    assert_eq!(bank.observe().counter("security.alerts_raised").unwrap(), 0);
}

/// Raises `n` out-of-range alerts across eight devices, returning the
/// process's live heap bytes afterwards.
fn storm(bank: &mut DetectorBank, n: u64) -> i64 {
    for i in 0..n {
        let device = format!("probe-{}", i % 8);
        let verdict = bank.observe_value(SimTime::from_secs(i), &device, "moisture_vwc", 1.5);
        assert!(verdict.is_anomalous());
    }
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// An alert storm is counted, not kept: after 1 000 warm-up alerts (every
/// device admitted, the event ring full) 10 000 more leave the live heap
/// flat. A bank that logged each alert (an `Alert` with its device and
/// quantity strings) would grow by about a megabyte here.
#[test]
fn alert_storm_keeps_live_bytes_flat() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut bank = DetectorBank::new();
    bank.configure_quantity("moisture_vwc", RangeValidator::soil_moisture());
    let warm = storm(&mut bank, 1_000);
    let stormed = storm(&mut bank, 10_000);
    assert_eq!(
        bank.observe().counter("security.alerts_raised").unwrap(),
        11_000
    );
    assert!(
        stormed - warm <= 4_096,
        "10 000 alerts after warm-up grew the live heap by {} bytes",
        stormed - warm
    );
}
