//! Always-on property tests for the `device_id → shard` routing function
//! (ISSUE 5 satellite: totality, stability under re-registration, and
//! balance over 10k random ids), seeded through `SimRng`.

use swamp_core::platform::{DeploymentConfig, Platform};
use swamp_core::shard::{route_device, route_entity, routing_key, DEVICE_URN_PREFIX};
use swamp_sensors::device::DeviceKind;
use swamp_shard::ShardedPlatform;
use swamp_sim::{SimRng, SimTime};

/// Generates a population of pseudo-random device ids of varied shapes:
/// short names, hex ids, dotted site prefixes — what real fleets mix.
fn random_ids(seed: u64, count: usize) -> Vec<String> {
    let mut rng = SimRng::seed_from(seed).split("routing-ids");
    (0..count)
        .map(|i| match rng.below(4) {
            0 => format!("probe-{i}"),
            1 => format!("dev-{:016x}", rng.next_u64()),
            2 => format!("farm{}.sensor.{i}", rng.below(32)),
            _ => format!("urn-suffix-{}-{i}", rng.below(1000)),
        })
        .collect()
}

#[test]
fn routing_is_total_for_every_shard_count() {
    let ids = random_ids(42, 1000);
    for n in [1usize, 2, 3, 5, 8, 16, 64] {
        for id in &ids {
            assert!(route_device(id, n) < n, "{id} must land inside 0..{n}");
        }
    }
    // Degenerate inputs still route.
    assert_eq!(route_device("", 1), 0);
    assert!(route_device("", 7) < 7);
    assert_eq!(route_device("x", 0), 0, "0 shards clamp to 1");
}

#[test]
fn routing_is_stable_under_re_registration() {
    // Pure function of the id bytes: registering, unregistering and
    // re-registering devices (in any order, on any platform instance)
    // cannot move them, because routing consults no state.
    let ids = random_ids(7, 500);
    for n in [3usize, 8] {
        let first: Vec<_> = ids.iter().map(|id| route_device(id, n)).collect();
        // Re-evaluate in reverse order and interleaved with other lookups.
        for (i, id) in ids.iter().enumerate().rev() {
            assert_eq!(route_device(id, n), first[i]);
            assert_eq!(
                route_device(&ids[(i * 31) % ids.len()], n),
                first[(i * 31) % ids.len()]
            );
        }
    }
    // End-to-end: a ShardedPlatform rejects a duplicate registration on
    // the *same* shard the first one landed on.
    let mut sp = ShardedPlatform::build(
        &Platform::builder(DeploymentConfig::FarmFog)
            .seed(1)
            .shards(5),
    );
    let first = sp
        .register_device(SimTime::ZERO, "probe-9", DeviceKind::SoilProbe, "owner:a")
        .expect("fresh registration succeeds");
    assert!(sp
        .register_device(SimTime::ZERO, "probe-9", DeviceKind::SoilProbe, "owner:a")
        .is_err());
    assert_eq!(sp.shard_of("probe-9"), first);
}

#[test]
fn routing_balances_within_2x_over_10k_ids() {
    for (seed, n) in [(42u64, 4usize), (42, 8), (7, 16), (1234, 8)] {
        let ids = random_ids(seed, 10_000);
        let mut load = vec![0u64; n];
        for id in &ids {
            load[route_device(id, n)] += 1;
        }
        let max = *load.iter().max().expect("non-empty");
        let min = *load.iter().min().expect("non-empty");
        assert!(min > 0, "seed {seed}, {n} shards: some shard got nothing");
        assert!(
            max <= 2 * min,
            "seed {seed}, {n} shards: max/min load {max}/{min} exceeds 2x"
        );
    }
}

#[test]
fn entity_routing_follows_device_routing() {
    let ids = random_ids(99, 1000);
    for n in [1usize, 3, 8] {
        for id in &ids {
            let urn = format!("{DEVICE_URN_PREFIX}{id}");
            assert_eq!(route_entity(&urn, n), route_device(id, n));
        }
    }
}

#[test]
fn routing_key_distinguishes_realistic_fleets() {
    // No collisions among 10k realistic ids (64-bit FNV over short
    // strings; a collision here would silently co-locate two devices,
    // which is legal but should be vanishingly rare).
    let ids = random_ids(42, 10_000);
    let mut keys: Vec<u64> = ids.iter().map(|id| routing_key(id)).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), ids.len(), "routing keys collided");
}
