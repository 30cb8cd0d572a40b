//! Stable device → shard routing.
//!
//! The scale-out tier (crate `swamp-shard`) partitions the platform into
//! per-farm shards; every device must land on exactly one shard, and the
//! assignment must survive re-registration, process restarts and shard
//! bring-up order. Routing therefore hashes the *device id string* — not
//! any registration-time state — with a fixed, seedless FNV-1a and reduces
//! modulo the shard count.
//!
//! Invariants (enforced by the always-on property tests in
//! `crates/shard/tests/routing.rs`):
//!
//! - **total** — every id maps to a shard for every `shard_count ≥ 1`;
//! - **stable** — the same id always maps to the same shard (the function
//!   is pure: no interior state, no registration order dependence);
//! - **balanced** — over realistic id populations the max/min shard load
//!   stays within 2× (FNV-1a mixes short ASCII ids well).

use swamp_sim::Fnv1a;

/// Identifier of one shard: a dense index in `0..shard_count`.
pub type ShardIndex = usize;

/// The canonical NGSI entity-id prefix for field devices
/// (`urn:swamp:device:<device_id>`).
pub const DEVICE_URN_PREFIX: &str = "urn:swamp:device:";

/// The 64-bit FNV-1a digest of a device id — the stable routing key.
///
/// Exposed separately from [`route_device`] so tests and diagnostics can
/// inspect the pre-modulo key.
pub fn routing_key(device_id: &str) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write(device_id.as_bytes());
    hash.finish()
}

/// Routes a device id to a shard in `0..shard_count`.
///
/// Total for every `shard_count ≥ 1` (a zero shard count is treated as a
/// single shard rather than a division fault), pure, and stable: the result
/// depends only on the id bytes and the shard count.
pub fn route_device(device_id: &str, shard_count: usize) -> ShardIndex {
    let n = shard_count.max(1) as u64;
    (routing_key(device_id) % n) as ShardIndex
}

/// Derives the seed for shard `shard` from the deployment's base seed.
///
/// Shard 0 keeps the base seed unchanged, so a 1-shard deployment is
/// byte-identical to an unsharded platform built from the same builder —
/// the anchor of the shard differential proof. Higher shards mix the index
/// with a 64-bit golden-ratio stride so per-shard stochastic processes
/// (link loss, retry jitter) decorrelate.
pub fn shard_seed(base: u64, shard: ShardIndex) -> u64 {
    base ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Routes an entity id, treating the canonical device URN
/// `urn:swamp:device:<id>` as the bare device id `<id>` — so a device and
/// the telemetry entities it publishes always land on the same shard.
/// Non-device entity ids route on their full string.
pub fn route_entity(entity_id: &str, shard_count: usize) -> ShardIndex {
    let key = entity_id
        .strip_prefix(DEVICE_URN_PREFIX)
        .unwrap_or(entity_id);
    route_device(key, shard_count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_routes_everything_to_zero() {
        for id in ["", "probe-1", "urn:swamp:device:probe-999"] {
            assert_eq!(route_device(id, 1), 0);
            assert_eq!(route_device(id, 0), 0, "0 shards treated as 1");
        }
    }

    #[test]
    fn routing_is_pure_and_stable() {
        for n in [1usize, 2, 3, 8, 16] {
            let a = route_device("probe-42", n);
            let b = route_device("probe-42", n);
            assert_eq!(a, b);
            assert!(a < n);
        }
    }

    #[test]
    fn known_fnv_vectors() {
        // FNV-1a 64-bit reference digests.
        assert_eq!(routing_key(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(routing_key("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn device_and_its_entity_share_a_shard() {
        for n in [1usize, 3, 8, 16] {
            for i in 0..100 {
                let dev = format!("probe-{i}");
                let urn = format!("{DEVICE_URN_PREFIX}{dev}");
                assert_eq!(route_device(&dev, n), route_entity(&urn, n));
            }
        }
        // Non-device ids route on the full string.
        assert_eq!(
            route_entity("urn:swamp:zone:z1", 8),
            route_device("urn:swamp:zone:z1", 8)
        );
    }

    #[test]
    fn distinct_ids_spread_over_shards() {
        let n = 8;
        let mut seen = vec![false; n];
        for i in 0..64 {
            seen[route_device(&format!("probe-{i}"), n)] = true;
        }
        assert!(seen.iter().all(|s| *s), "64 ids should hit all 8 shards");
    }
}
