//! Seeded fault-plan fuzzing of the fog→cloud retry engine: under random
//! loss, duplication, reordering and scheduled partitions, every enqueued
//! record the bounded buffer did not evict must reach the cloud store
//! **exactly once** (eventual delivery, idempotent apply), and the engine
//! must end reconnected with an empty buffer — paced by a small window and
//! per-round cap, at the default window with uncapped rounds (how the
//! platform drives it), where the window is the one limit and must hold
//! after every round, and under capacity pressure, where records trickle
//! in faster than a faulty uplink drains them. Every scenario ends with
//! the uplink conservation audit (`swamp_obs::audit_uplink`).

use std::collections::BTreeSet;

use swamp_fog::sync::{CloudStore, DegradedMode, FogSync, DEFAULT_WINDOW};
use swamp_net::link::LinkSpec;
use swamp_net::network::Network;
use swamp_net::{FaultPlan, FaultSpec};
use swamp_sim::{SimDuration, SimRng, SimTime};

const RECORDS: u64 = 200;

/// How a scenario paces its engine: backlog size, in-flight window, the
/// `batch` argument of every `sync_round`, buffer capacity, and how many
/// records are enqueued before each round.
#[derive(Clone, Copy)]
struct Pacing {
    records: u64,
    window: usize,
    batch: usize,
    capacity: usize,
    per_round: u64,
}

/// A standalone driver's pacing: a 64-record window, 64 per round, the
/// whole backlog enqueued up front into a buffer that holds it.
const PACED: Pacing = Pacing {
    records: RECORDS,
    window: 64,
    batch: 64,
    capacity: 20_000,
    per_round: RECORDS,
};

/// The platform's: the default window, no per-round cap, and a backlog
/// several windows deep so the window actually binds.
const WINDOW_RATE: Pacing = Pacing {
    records: 3 * DEFAULT_WINDOW as u64,
    window: DEFAULT_WINDOW,
    batch: usize::MAX,
    capacity: 20_000,
    per_round: 3 * DEFAULT_WINDOW as u64,
};

/// Capacity pressure: four records arrive per round into a 24-record
/// buffer, so retransmission backlogs and partitions evict records —
/// some never transmitted, some in flight.
const SQUEEZED: Pacing = Pacing {
    records: RECORDS,
    window: 64,
    batch: 64,
    capacity: 24,
    per_round: 4,
};

struct Outcome {
    pending: usize,
    stored: usize,
    unique_seqs: usize,
    acked: u64,
    dropped: u64,
    duplicates_discarded: u64,
    retransmissions: u64,
    mode: DegradedMode,
}

/// Drives one fog→cloud scenario under the given fault severity until the
/// backlog drains (or a generous round budget runs out). `uplink` lets the
/// clean-baseline test swap the intrinsically lossy rural uplink for a
/// lossless LAN.
fn run_scenario(
    seed: u64,
    uplink: LinkSpec,
    fault_rate: f64,
    with_partition: bool,
    pacing: Pacing,
) -> Outcome {
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
        .capacity(pacing.capacity)
        .base_timeout(SimDuration::from_secs(20))
        .backoff(2.0, SimDuration::from_secs(120))
        .jitter(0.2)
        .max_in_flight(pacing.window)
        .seed(seed ^ 0x5e)
        .build();
    let mut store = CloudStore::new("cloud");

    let mut now = SimTime::from_secs(RECORDS);
    let mut enqueued = 0;
    for round in 0..2_000 {
        let until = pacing.records.min(enqueued + pacing.per_round);
        for i in enqueued..until {
            sync.enqueue(now, &format!("k{i:04}"), i.to_be_bytes().to_vec())
                .expect("short key");
        }
        enqueued = until;
        sync.sync_round(&mut net, now, pacing.batch);
        assert!(
            sync.in_flight() <= pacing.window,
            "seed {seed} round {round}: {} records in flight, window {}",
            sync.in_flight(),
            pacing.window
        );
        now += SimDuration::from_secs(2);
        net.advance_to(now);
        store.process(&mut net, now);
        now += SimDuration::from_secs(2);
        net.advance_to(now);
        sync.poll_acks(&mut net, now);
        now += SimDuration::from_secs(6);
        if enqueued == pacing.records && sync.pending() == 0 {
            break;
        }
    }

    // Whatever the faults did, the counters conserve every record.
    let mut counts = sync.observe();
    counts.merge(&store.observe());
    if let Err(e) = swamp_obs::audit_uplink(&counts, false) {
        panic!("seed {seed}, rate {fault_rate:.3}: {e}");
    }
    let unique: BTreeSet<u64> = store.history().iter().map(|r| r.seq).collect();
    let count = |name| counts.counter(name).expect("registered counter");
    Outcome {
        pending: sync.pending(),
        stored: store.record_count(),
        unique_seqs: unique.len(),
        acked: count("sync.acked"),
        dropped: count("sync.dropped"),
        duplicates_discarded: store
            .observe()
            .counter("cloud.duplicates")
            .expect("registered counter"),
        retransmissions: count("sync.retransmissions"),
        mode: sync.mode(),
    }
}

#[test]
fn exactly_once_under_seeded_fault_plans() {
    let mut rng = SimRng::seed_from(0x665f726573);
    let fuzzed = (0..12).map(|case| {
        let seed = rng.next_u64();
        (seed, rng.uniform_f64() * 0.35, case % 3 != 0, PACED)
    });
    // The default window under uncapped rounds, at the workspace's three
    // reference seeds: light, moderate and heavy faults, two of them
    // through the partition.
    let window_rate = [
        (1, 0.05, true, WINDOW_RATE),
        (42, 0.15, false, WINDOW_RATE),
        (1337, 0.30, true, WINDOW_RATE),
    ];
    // Capacity pressure: loss, duplication and reordering, with and
    // without the partition.
    let squeezed = [
        (7, 0.10, true, SQUEEZED),
        (42, 0.30, false, SQUEEZED),
        (1337, 0.35, true, SQUEEZED),
    ];
    let cases = fuzzed.chain(window_rate).chain(squeezed);
    for (case, (seed, fault_rate, with_partition, pacing)) in cases.enumerate() {
        let o = run_scenario(
            seed,
            LinkSpec::rural_internet(),
            fault_rate,
            with_partition,
            pacing,
        );
        assert_eq!(
            o.pending, 0,
            "case {case} (seed {seed}, rate {fault_rate:.3}): backlog must drain"
        );
        // Every record the buffer kept was acked, so applied; an evicted
        // one may have been applied before its eviction, or never.
        assert_eq!(
            o.acked + o.dropped,
            pacing.records,
            "case {case}: every record is acked or evicted"
        );
        assert!(
            o.stored as u64 >= pacing.records - o.dropped,
            "case {case}: {} applied, {} enqueued, {} evicted",
            o.stored,
            pacing.records,
            o.dropped
        );
        assert_eq!(
            o.unique_seqs, o.stored,
            "case {case}: no sequence number applied twice"
        );
        assert_eq!(
            o.dropped > 0,
            pacing.capacity < pacing.records as usize,
            "case {case}: only capacity pressure evicts"
        );
        assert_eq!(
            o.mode,
            DegradedMode::Connected,
            "case {case}: engine reconnects once the backlog drains"
        );
    }
}

/// Catch-up after a long outage, at window rate. A one-hour partition
/// strands a 20 000-record backlog: one window of it is in flight (and
/// times out, backs off and retransmits into the void), the rest was never
/// transmitted. Once the link is back and the stranded window's timer has
/// fired, each ack round trip must move a whole window of the rest — the
/// window is the engine's only limit, so the bound is in round trips, not
/// in seconds.
#[test]
fn backlog_after_a_partition_drains_a_window_per_round_trip() {
    const BACKLOG: usize = 20_000;
    let heal = SimTime::from_secs(3600);

    let mut net = Network::new(9);
    net.add_node("fog");
    net.add_node("cloud");
    net.connect("fog", "cloud", LinkSpec::cloud_backbone());
    let mut plan = FaultPlan::new(9);
    plan.add_partition("fog", "cloud", SimTime::ZERO, heal)
        .expect("valid window");
    net.install_fault_plan(plan);

    // Jitter off: the stranded window was sent in one round and keeps
    // retransmitting in one round, so its release is one event to count
    // round trips from.
    let mut sync = FogSync::builder("fog", "cloud").jitter(0.0).build();
    let mut store = CloudStore::new("cloud");
    for i in 0..BACKLOG {
        sync.enqueue(SimTime::ZERO, &format!("k{i:05}"), vec![i as u8])
            .expect("under capacity");
    }

    // One iteration is one ack round trip: a round out, the cloud applies
    // and acks, the acks land.
    let mut now = SimTime::ZERO;
    let mut offline_seen = false;
    let mut trips_after_release = None::<usize>;
    for _ in 0..1_000 {
        sync.sync_round(&mut net, now, usize::MAX);
        assert!(
            sync.in_flight() <= DEFAULT_WINDOW,
            "{} records in flight at {now:?}, window {DEFAULT_WINDOW}",
            sync.in_flight()
        );
        now += SimDuration::from_secs(1);
        net.advance_to(now);
        store.process(&mut net, now);
        now += SimDuration::from_secs(1);
        net.advance_to(now);
        sync.poll_acks(&mut net, now);
        now += SimDuration::from_secs(8);

        offline_seen |= sync.mode() == DegradedMode::Offline;
        if now <= heal {
            assert_eq!(store.record_count(), 0, "nothing crosses a partition");
            assert_eq!(sync.pending(), BACKLOG);
        }
        if let Some(trips) = &mut trips_after_release {
            *trips += 1;
        } else if sync.observe().counter("sync.acked").is_ok_and(|n| n > 0) {
            // The stranded window got through and was acked whole.
            assert_eq!(sync.pending(), BACKLOG - DEFAULT_WINDOW);
            trips_after_release = Some(0);
        }
        if sync.pending() == 0 {
            break;
        }
    }

    assert!(
        offline_seen,
        "an hour of timeouts grades the uplink offline"
    );
    assert_eq!(sync.pending(), 0, "backlog must drain after the heal");
    assert_eq!(sync.mode(), DegradedMode::Connected);
    assert_eq!(store.record_count(), BACKLOG);
    let unique: BTreeSet<u64> = store.history().iter().map(|r| r.seq).collect();
    assert_eq!(unique.len(), BACKLOG, "every record applied exactly once");
    assert_eq!(
        store.observe().counter("cloud.duplicates").unwrap(),
        0,
        "the partition delivered no copy"
    );
    assert_eq!(
        trips_after_release,
        Some((BACKLOG - DEFAULT_WINDOW).div_ceil(DEFAULT_WINDOW)),
        "the never-transmitted backlog must drain one window per ack round trip"
    );
}

#[test]
fn duplicates_are_discarded_not_applied() {
    // A heavy duplication/loss scenario: retransmissions and injected
    // duplicates both occur, and each discarded copy is counted by the
    // store rather than applied.
    let o = run_scenario(0xd1ce, LinkSpec::rural_internet(), 0.30, true, PACED);
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
    let o = run_scenario(7, LinkSpec::farm_lan(), 0.0, false, PACED);
    assert_eq!(o.stored, RECORDS as usize);
    assert_eq!(o.pending, 0);
    assert_eq!(
        o.retransmissions, 0,
        "nothing times out on a clean LAN uplink"
    );
}
