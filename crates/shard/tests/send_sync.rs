//! Compile-time Send/Sync audit of the platform stack.
//!
//! The worker pool moves `&mut Platform` borrows across scoped threads, so
//! `Platform: Send` is a hard requirement of the parallel scheduler — and a
//! fragile one: a single `Rc`, `RefCell` or raw-pointer field added anywhere
//! in the ownership tree (broker, history store, fog sync, obs registry,
//! network fabric) would silently revoke it and break the build far from
//! the offending change. These zero-sized assertions pin the auto traits at
//! compile time, `static_assertions`-style but with no dependency: if any
//! listed type loses `Send`/`Sync`, *this file* fails to compile with the
//! type named in the error.
//!
//! Audit result (recorded in DESIGN.md §14): every platform component is
//! built from owned data plus `Arc`-shared immutable state, so the whole
//! stack is both `Send` and `Sync` with no `unsafe impl` anywhere.

use swamp_core::broker::ContextBroker;
use swamp_core::history::HistoryStore;
use swamp_core::platform::{Platform, PlatformBuilder};
use swamp_core::registry::DeviceRegistry;
use swamp_fog::sync::{CloudStore, FogSync};
use swamp_net::network::Network;
use swamp_obs::Obs;
use swamp_shard::ShardedPlatform;

const fn assert_send<T: Send>() {}
const fn assert_sync<T: Sync>() {}

// Evaluated at compile time; the test body only forces the consts to be
// monomorphised so `cargo test` exercises them even under `--no-run`.
const _: () = {
    // The types the worker pool actually moves across threads.
    assert_send::<Platform>();
    assert_send::<ShardedPlatform>();
    assert_send::<PlatformBuilder>();
    // Every component in Platform's ownership tree, independently — so a
    // regression names the exact subsystem, not just `Platform`.
    assert_send::<Network>();
    assert_send::<FogSync>();
    assert_send::<CloudStore>();
    assert_send::<ContextBroker>();
    assert_send::<HistoryStore>();
    assert_send::<DeviceRegistry>();
    assert_send::<Obs>();
    // Sync is not required by the pool (each worker owns its chunk
    // exclusively) but it documents that shared `&Platform` reads — e.g.
    // `observe()` from a monitoring thread — would also be sound.
    assert_sync::<Platform>();
    assert_sync::<ShardedPlatform>();
    assert_sync::<Network>();
    assert_sync::<FogSync>();
    assert_sync::<CloudStore>();
    assert_sync::<ContextBroker>();
    assert_sync::<HistoryStore>();
    assert_sync::<DeviceRegistry>();
    assert_sync::<Obs>();
};

#[test]
fn platform_stack_is_send_and_sync() {
    // The audit itself happened at compile time (the `const _` block
    // above); a runtime smoke check proves a Platform really can cross a
    // thread boundary and come back usable.
    let platform = Platform::builder(swamp_core::platform::DeploymentConfig::FarmFog)
        .seed(42)
        .build();
    let handle = std::thread::spawn(move || {
        let mut p = platform;
        p.pump(swamp_sim::SimTime::from_secs(60));
        p.observe().counter("ingest.accepted").unwrap_or_default()
    });
    assert_eq!(handle.join().expect("worker thread panicked"), 0);
}
