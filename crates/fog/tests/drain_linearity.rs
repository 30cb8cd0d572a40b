//! Deep-backlog drains must stay linear in backlog depth, proven from
//! the engine's own witness rather than a stopwatch: `sync.round_scanned`
//! records how many records (due deadlines, admissions) each round
//! examined. A lossless drain under a retry timeout longer than the whole
//! run fires no timer, and the engine's indexes hold nothing stale, so
//! the rounds examine exactly the records they transmit, at most a window
//! each (the rounds are uncapped, as the platform's are) — any per-round
//! rescan of the backlog shows up as a `max` in the tens of thousands and
//! a `Σ scanned` far above the transmissions, on any machine. The link is
//! the zero-loss backbone (`farm_lan` drops 1 in 10 000).

use swamp_fog::sync::{CloudStore, FogSync, DEFAULT_WINDOW};
use swamp_net::link::LinkSpec;
use swamp_net::network::Network;
use swamp_sim::{SimDuration, SimTime};

const BACKLOG: usize = 100_000;
/// Longer than the whole drain (≈ 50 s of sim time), so no timer fires.
const RETRY_TIMEOUT: SimDuration = SimDuration::from_secs(3600);

#[test]
fn lossless_drain_examines_each_record_once() {
    let mut net = Network::new(17);
    net.add_node("fog");
    net.add_node("cloud");
    net.connect("fog", "cloud", LinkSpec::cloud_backbone());
    let mut sync = FogSync::builder("fog", "cloud")
        .capacity(BACKLOG)
        .base_timeout(RETRY_TIMEOUT)
        .jitter(0.0)
        .build();
    let mut cloud = CloudStore::new("cloud");
    for i in 0..BACKLOG {
        sync.enqueue(SimTime::ZERO, "probe", vec![i as u8])
            .expect("under capacity");
    }

    // One window per round, each acked before the next.
    let round_budget = BACKLOG.div_ceil(DEFAULT_WINDOW);
    let mut rounds = 0;
    let mut now = SimTime::ZERO;
    while sync.pending() > 0 {
        assert!(
            rounds < round_budget,
            "drain stalled: {} of {BACKLOG} records still pending after {rounds} rounds",
            sync.pending()
        );
        sync.sync_round(&mut net, now, usize::MAX);
        now += SimDuration::from_secs(1);
        net.advance_to(now);
        cloud.process(&mut net, now);
        now += SimDuration::from_secs(1);
        net.advance_to(now);
        sync.poll_acks(&mut net, now);
        rounds += 1;
    }
    assert!(
        now < SimTime::ZERO + RETRY_TIMEOUT,
        "the drain must finish inside the retry timeout, or timers fire"
    );
    assert_eq!(cloud.record_count(), BACKLOG, "lossless drain lost records");

    let snap = sync.observe();
    let scanned = &snap
        .summary("sync.round_scanned")
        .expect("registered histogram")
        .stats;
    assert_eq!(scanned.count(), rounds as u64, "one sample per round");
    assert!(
        scanned.max() <= DEFAULT_WINDOW as f64,
        "a round examined {} entries for a window of {DEFAULT_WINDOW}: per-round \
         work must track transmissions, not backlog depth",
        scanned.max()
    );
    // The summary keeps a running mean; Σ is exact after rounding.
    let total = (scanned.mean() * scanned.count() as f64).round() as u64;
    let transmissions = snap
        .counter("sync.transmissions")
        .expect("registered counter");
    assert_eq!(
        total, transmissions,
        "drain examined {total} records for {transmissions} transmissions"
    );
}
