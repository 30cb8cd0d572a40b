//! One handle over the two deployment shapes the workloads drive: a
//! single [`Platform`] or a [`ShardedPlatform`]. Everything here is a
//! public function of the platform crates; the benchmark measures them
//! from outside.

use swamp_core::platform::{Platform, PlatformBuilder};
use swamp_core::Drive;
use swamp_fog::sync::CloudStore;
use swamp_shard::ShardedPlatform;
use swamp_sim::SimTime;

pub enum Deployment {
    One(Box<Platform>),
    Sharded(Box<ShardedPlatform>),
}

impl Deployment {
    /// Builds what the builder describes: a sharded tier when it asks for
    /// more than one shard, one platform otherwise.
    pub fn build(builder: &PlatformBuilder) -> Deployment {
        if builder.shard_count() > 1 {
            Deployment::Sharded(Box::new(ShardedPlatform::build(builder)))
        } else {
            Deployment::One(Box::new(builder.clone().build()))
        }
    }

    pub fn drive(&mut self) -> &mut dyn Drive {
        match self {
            Deployment::One(p) => p.as_mut(),
            Deployment::Sharded(sp) => sp.as_mut(),
        }
    }

    /// The store a cloud reader sees: the replica of a single platform,
    /// the cross-shard aggregate of a sharded one.
    pub fn cloud(&self) -> &CloudStore {
        match self {
            Deployment::One(p) => p
                .cloud_replica()
                .expect("every workload runs the FarmFog configuration"),
            Deployment::Sharded(sp) => sp.aggregate_store(),
        }
    }

    /// The single platform of a workload that needs device-level calls
    /// the `Drive` trait does not carry.
    pub fn one_mut(&mut self) -> &mut Platform {
        match self {
            Deployment::One(p) => p,
            Deployment::Sharded(_) => panic!("this workload runs on one platform"),
        }
    }

    pub fn platforms(&self) -> Vec<&Platform> {
        match self {
            Deployment::One(p) => vec![p.as_ref()],
            Deployment::Sharded(sp) => sp.shards().collect(),
        }
    }

    pub fn for_each_platform_mut(&mut self, mut f: impl FnMut(&mut Platform)) {
        match self {
            Deployment::One(p) => f(p),
            Deployment::Sharded(sp) => {
                for i in 0..sp.shard_count() {
                    f(sp.shard_mut(i).expect("index below shard_count"));
                }
            }
        }
    }

    /// Delivers what is still in flight between the shards and the
    /// aggregate store; a single platform has no such hop.
    pub fn flush(&mut self, now: SimTime) {
        if let Deployment::Sharded(sp) = self {
            sp.flush_aggregation(now);
        }
    }

    pub fn compact_history(&mut self) -> usize {
        match self {
            Deployment::One(p) => p.compact_history(),
            Deployment::Sharded(sp) => sp.compact_history(),
        }
    }
}
