//! Seeded fault-plan fuzzing of the fog→cloud retry engine: under random
//! loss, duplication, reordering and scheduled partitions, every enqueued
//! record must reach the cloud store **exactly once** (eventual delivery,
//! idempotent apply), and the engine must end reconnected with an empty
//! buffer.

use std::collections::BTreeSet;

use swamp_fog::sync::{CloudStore, DegradedMode, FogSync};
use swamp_net::link::LinkSpec;
use swamp_net::network::Network;
use swamp_net::{FaultPlan, FaultSpec};
use swamp_sim::{SimDuration, SimRng, SimTime};

const RECORDS: u64 = 200;

struct Outcome {
    pending: usize,
    stored: usize,
    unique_seqs: usize,
    duplicates_discarded: u64,
    retransmissions: u64,
    mode: DegradedMode,
}

/// Drives one fog→cloud scenario under the given fault severity until the
/// backlog drains (or a generous round budget runs out). `uplink` lets the
/// clean-baseline test swap the intrinsically lossy rural uplink for a
/// lossless LAN.
fn run_scenario(seed: u64, uplink: LinkSpec, fault_rate: f64, with_partition: bool) -> Outcome {
    let mut net = Network::new(seed);
    net.add_node("fog");
    net.add_node("cloud");
    net.connect("fog", "cloud", uplink);

    if fault_rate > 0.0 || with_partition {
        let mut plan = FaultPlan::new(seed ^ 0xfa);
        plan.set_link_faults("fog", "cloud", FaultSpec::degraded(fault_rate))
            .expect("valid rates");
        if with_partition {
            plan.add_partition(
                "fog",
                "cloud",
                SimTime::from_secs(120),
                SimTime::from_secs(600),
            )
            .expect("valid window");
        }
        net.install_fault_plan(plan);
    }

    let mut sync = FogSync::builder("fog", "cloud")
        .capacity(10_000)
        .base_timeout(SimDuration::from_secs(20))
        .backoff(2.0, SimDuration::from_secs(120))
        .jitter(0.2)
        .max_in_flight(64)
        .seed(seed ^ 0x5e)
        .build();
    let mut store = CloudStore::new("cloud");

    for i in 0..RECORDS {
        sync.enqueue(
            SimTime::from_secs(i),
            &format!("k{i:04}"),
            i.to_be_bytes().to_vec(),
        )
        .expect("capacity exceeds the record count");
    }

    let mut now = SimTime::from_secs(RECORDS);
    for _ in 0..2_000 {
        sync.sync_round(&mut net, now, 64);
        now += SimDuration::from_secs(2);
        net.advance_to(now);
        store.process(&mut net, now);
        now += SimDuration::from_secs(2);
        net.advance_to(now);
        sync.poll_acks(&mut net, now);
        now += SimDuration::from_secs(6);
        if sync.pending() == 0 {
            break;
        }
    }

    let unique: BTreeSet<u64> = store.history().iter().map(|r| r.seq).collect();
    Outcome {
        pending: sync.pending(),
        stored: store.record_count(),
        unique_seqs: unique.len(),
        duplicates_discarded: store.duplicates(),
        retransmissions: sync.stats().retransmissions,
        mode: sync.mode(),
    }
}

#[test]
fn exactly_once_under_seeded_fault_plans() {
    let mut rng = SimRng::seed_from(0x665f726573);
    for case in 0..12 {
        let seed = rng.next_u64();
        let fault_rate = rng.uniform_f64() * 0.35;
        let with_partition = case % 3 != 0;
        let o = run_scenario(seed, LinkSpec::rural_internet(), fault_rate, with_partition);
        assert_eq!(
            o.pending, 0,
            "case {case} (seed {seed}, rate {fault_rate:.3}): backlog must drain"
        );
        assert_eq!(
            o.stored, RECORDS as usize,
            "case {case}: every record delivered exactly once"
        );
        assert_eq!(
            o.unique_seqs, RECORDS as usize,
            "case {case}: no sequence number applied twice"
        );
        assert_eq!(
            o.mode,
            DegradedMode::Connected,
            "case {case}: engine reconnects once the backlog drains"
        );
    }
}

#[test]
fn duplicates_are_discarded_not_applied() {
    // A heavy duplication/loss scenario: retransmissions and injected
    // duplicates both occur, and each discarded copy is counted by the
    // store rather than applied.
    let o = run_scenario(0xd1ce, LinkSpec::rural_internet(), 0.30, true);
    assert_eq!(o.stored, RECORDS as usize);
    assert!(
        o.retransmissions > 0,
        "30% loss through a partition must force retransmissions"
    );
    assert!(
        o.duplicates_discarded > 0,
        "retransmitted/duplicated copies must be deduplicated"
    );
}

#[test]
fn clean_network_needs_no_retransmissions() {
    let o = run_scenario(7, LinkSpec::farm_lan(), 0.0, false);
    assert_eq!(o.stored, RECORDS as usize);
    assert_eq!(o.pending, 0);
    assert_eq!(
        o.retransmissions, 0,
        "nothing times out on a clean LAN uplink"
    );
}
