//! Allocation-count proofs for the zero-copy hot paths.
//!
//! A counting global allocator measures the broker fan-out and history
//! append paths directly: fanning one update out to 256 subscribers must
//! allocate no more than fanning it out to 1 (the snapshot is shared via
//! `Arc`, queues and drain buffers reuse capacity), and a steady-state
//! history append must allocate nothing at all (interned series key,
//! in-order push within capacity).
//!
//! The same allocator then budgets a record's whole write path through an
//! assembled [`Platform`] — allocations per accepted record for
//! `ingest_entities`, the pumps that replicate it, `device_publish`, and a
//! sealed frame pumped end to end (DESIGN.md §6 has the per-leg table),
//! in a steady round and in the first round, which also pays for every
//! table's first sight of each device and key — and holds a pump that
//! moves a full uplink window to the same per-record price with no
//! window-sized scratch allocation. A burst of frames from fresh
//! unregistered ids leaves the live heap where its warm-up left it.
//! The counts repeat exactly for a seed, so each budget is an equality-
//! grade gate on a box whose wall clock is not.
//!
//! Live heap bytes get budgets of their own: what one two-attribute probe
//! [`Entity`] owns, what each table keeps per device or record (DESIGN.md
//! §6's per-owner table), and what an assembled [`Platform`] holds per
//! device after a first fleet round and per record after a steady one.
//!
//! The read path gets the same treatment: the summary-served
//! [`QueryRequest`]s (`Extremes`, `Aggregate`, `Last`) through
//! [`Platform::query`] allocate nothing, however many frozen segments the
//! window prunes, summarises or decodes.
//!
//! Everything runs inside one `#[test]` so concurrent test threads cannot
//! pollute the shared counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

use swamp_codec::ngsi::Entity;
use swamp_core::broker::{ContextBroker, Notification, SubscriptionFilter, SubscriptionId};
use swamp_core::history::HistoryStore;
use swamp_core::platform::{DeploymentConfig, IngestError, Platform};
use swamp_core::query::{QueryRequest, QueryResponse};
use swamp_fog::sync::{CloudStore, FogSync, UpdateRecord, DEFAULT_WINDOW};
use swamp_net::link::LinkSpec;
use swamp_net::NodeId;
use swamp_security::baseline::{BaselineConfig, BehaviorBank};
use swamp_sensors::device::DeviceKind;
use swamp_sim::{SimDuration, SimTime};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
/// Largest single fresh allocation (not a `realloc`: a long-lived run
/// growing in place is not scratch) since the last reset, in bytes.
static LARGEST_FRESH: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated and not yet freed, process-wide.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

fn size(bytes: usize) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LARGEST_FRESH.fetch_max(layout.size(), Ordering::Relaxed);
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

fn alloc_calls<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let r = f();
    (ALLOC_CALLS.load(Ordering::Relaxed) - before, r)
}

/// Live heap bytes `f` leaves behind (its result still alive), per unit of
/// `per`.
fn live_bytes<R>(per: usize, f: impl FnOnce() -> R) -> (f64, R) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let r = f();
    let grew = LIVE_BYTES.load(Ordering::Relaxed) - before;
    (grew as f64 / per as f64, r)
}

/// Allocations for `rounds` upsert+drain cycles against `subs` subscribers,
/// measured after a warmup that settles queue/buffer capacities.
fn fanout_allocs(subs: usize, rounds: usize) -> u64 {
    let mut broker = ContextBroker::new();
    let ids: Vec<_> = (0..subs)
        .map(|_| {
            broker.subscribe(SubscriptionFilter {
                entity_type: Some("SoilProbe".into()),
                id_prefix: None,
                watched_attrs: vec![],
            })
        })
        .collect();
    let mut drained = Vec::new();
    let run_round = |broker: &mut ContextBroker, drained: &mut Vec<_>, v: f64| {
        let mut e = Entity::new("urn:swamp:device:probe-1", "SoilProbe");
        e.set("moisture_vwc", v);
        broker.upsert(SimTime::ZERO, e);
        for id in &ids {
            broker.drain_notifications_into(*id, drained).unwrap();
        }
        drained.clear();
    };
    for i in 0..32 {
        run_round(&mut broker, &mut drained, 0.1 + i as f64 * 0.001);
    }
    let (calls, ()) = alloc_calls(|| {
        for i in 0..rounds {
            run_round(&mut broker, &mut drained, 0.2 + i as f64 * 0.001);
        }
    });
    calls
}

/// Fleet size of the write-path budgets: one ingest chunk, a sixteenth of
/// the uplink window.
const DEVICES: usize = 256;

/// Allocations per accepted record on each leg of the write path, in one
/// round of a FarmFog platform over a lossless uplink.
struct WritePath {
    /// `Platform::ingest_entities`, per record of the batch.
    ingest: f64,
    /// The pumps that transmit, apply and ack that batch, per record.
    replicate: f64,
    /// The largest single fresh allocation those pumps made, in bytes.
    largest_pump_alloc: usize,
    /// Live heap bytes the platform gained over the round (the batch
    /// built, ingested and replicated), per record.
    live: f64,
}

fn fleet_round(round: u64, devices: usize) -> Vec<Entity> {
    (0..devices)
        .map(|i| {
            let mut e = Entity::new(format!("urn:swamp:device:probe-{i}"), "SoilProbe");
            e.set(
                "moisture_vwc",
                0.2 + round as f64 * 0.001 + i as f64 * 0.00001,
            );
            e.set("seq", round as f64);
            e
        })
        .collect()
}

fn lossless_platform() -> Platform {
    Platform::builder(DeploymentConfig::FarmFog)
        .seed(42)
        .uplink_spec(LinkSpec::cloud_backbone())
        .build()
}

/// Sixteen pumps a second apart — enough to transmit a round of up to one
/// window, apply it at the cloud and get every ack back — draining the
/// subscriber (if any) after each pump as a consumer would.
fn pump_and_drain(
    p: &mut Platform,
    now: &mut SimTime,
    sub: Option<SubscriptionId>,
    drained: &mut Vec<Notification>,
) {
    for _ in 0..16 {
        *now += SimDuration::from_secs(1);
        p.pump(*now);
        if let Some(sub) = sub {
            p.context.drain_notifications_into(sub, drained).unwrap();
            drained.clear();
        }
    }
}

/// The write path's legs in the first round (every device and key seen
/// for the first time) and in a steady round (the third).
fn write_path_allocs(with_subscriber: bool, devices: usize) -> (WritePath, WritePath) {
    let mut p = lossless_platform();
    let sub = with_subscriber.then(|| {
        p.context
            .subscribe(SubscriptionFilter::for_type("SoilProbe"))
    });
    let mut drained = Vec::new();
    let mut now = SimTime::from_secs(60);
    let (mut first, mut steady) = (None, None);
    for round in 0..3u64 {
        let live_before = LIVE_BYTES.load(Ordering::Relaxed);
        let batch = fleet_round(round, devices);
        now += SimDuration::from_secs(600);
        let (ingest, applied) = alloc_calls(|| p.ingest_entities(now, batch));
        assert_eq!(applied, devices);
        LARGEST_FRESH.store(0, Ordering::Relaxed);
        let (replicate, ()) = alloc_calls(|| pump_and_drain(&mut p, &mut now, sub, &mut drained));
        let live = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
        assert_eq!(
            p.cloud_replica().unwrap().record_count(),
            (round as usize + 1) * devices
        );
        let leg = WritePath {
            ingest: ingest as f64 / devices as f64,
            replicate: replicate as f64 / devices as f64,
            largest_pump_alloc: LARGEST_FRESH.load(Ordering::Relaxed),
            live: live as f64 / devices as f64,
        };
        if round == 0 {
            first = Some(leg);
        } else {
            steady = Some(leg);
        }
    }
    // With nothing left to move, a pump allocates nothing at all: whatever
    // a pump allocates it allocates per record, inside the budgets above.
    let (quiet, ()) = alloc_calls(|| pump_and_drain(&mut p, &mut now, sub, &mut drained));
    assert_eq!(
        quiet, 0,
        "sixteen pumps with nothing to move allocated {quiet} times"
    );
    let snap = p.observe();
    assert_eq!(snap.gauge("sync.pending").unwrap(), Some(0.0));
    assert_eq!(snap.counter("sync.retransmissions").unwrap(), 0);
    (
        first.expect("round 0 ran"),
        steady.expect("three rounds ran"),
    )
}

/// Allocations per `device_publish` call and per sealed frame the pumps
/// then accept (validate, ingest with one subscriber, replicate, ack), for
/// a registered fleet over the lossy field radio.
struct SealedPath {
    /// `device_publish`, per call, in the third round.
    publish: f64,
    /// A sealed frame pumped, in the first round: each device's first
    /// frame, so every table that keys devices or entities sees it first.
    first_sight: f64,
    /// A sealed frame pumped, in the third round.
    steady: f64,
}

fn sealed_path_allocs() -> SealedPath {
    let mut p = lossless_platform();
    let ids: Vec<String> = (0..DEVICES).map(|i| format!("probe-{i}")).collect();
    for id in &ids {
        p.register_device(SimTime::ZERO, id, DeviceKind::SoilProbe, "owner:bench")
            .unwrap();
    }
    let sub = p
        .context
        .subscribe(SubscriptionFilter::for_type("SoilProbe"));
    let mut drained = Vec::new();
    let mut now = SimTime::from_secs(60);
    let mut measured = SealedPath {
        publish: 0.0,
        first_sight: 0.0,
        steady: 0.0,
    };
    for round in 0..3u64 {
        let batch = fleet_round(round, DEVICES);
        now += SimDuration::from_secs(600);
        let (publish, ()) = alloc_calls(|| {
            for (id, entity) in ids.iter().zip(&batch) {
                p.device_publish(now, id, entity).unwrap();
            }
        });
        let before = p.observe().counter("ingest.accepted").unwrap();
        let (pumped, ()) =
            alloc_calls(|| pump_and_drain(&mut p, &mut now, Some(sub), &mut drained));
        let accepted = p.observe().counter("ingest.accepted").unwrap() - before;
        assert!(accepted as usize > DEVICES * 9 / 10, "radio lost too much");
        let pumped = pumped as f64 / accepted as f64;
        if round == 0 {
            measured.first_sight = pumped;
        }
        measured.publish = publish as f64 / DEVICES as f64;
        measured.steady = pumped;
    }
    let snap = p.observe();
    assert_eq!(snap.gauge("sync.pending").unwrap(), Some(0.0));
    assert_eq!(
        p.cloud_replica().unwrap().record_count() as u64,
        snap.counter("ingest.accepted").unwrap()
    );
    measured
}

/// Devices per table in the per-owner live-bytes measurements: a window's
/// worth, so hash-table growth is amortised over many keys.
const OWNERS: usize = DEFAULT_WINDOW;

/// Live heap bytes per device (per record for the two sync tables) that
/// each owner on the write path keeps for a fleet of [`OWNERS`]
/// two-attribute probes, each table measured on its own.
struct OwnerBytes {
    /// One probe `Entity`: its inline bytes and everything it owns.
    entity: f64,
    /// The broker's row for a device, beyond the entity it shares out.
    broker_row: f64,
    /// The device's two history series, one sample each.
    history: f64,
    /// The behavioral baseline's state for the device, after one sample.
    baseline: f64,
    /// A record in the fog's uplink backlog, payload included.
    sync_record: f64,
    /// A record in the cloud run, key and payload included.
    cloud_record: f64,
}

fn owner_live_bytes() -> OwnerBytes {
    let now = SimTime::from_secs(60);
    let (entity, batch) = live_bytes(OWNERS, || fleet_round(0, OWNERS));
    let wires: Vec<(String, Vec<u8>)> = batch
        .iter()
        .map(|e| {
            let mut wire = String::new();
            e.write_compact(&mut wire);
            (e.id().as_str().to_owned(), wire.into_bytes())
        })
        .collect();

    let mut history = HistoryStore::new();
    let (history_bytes, ()) = live_bytes(OWNERS, || {
        for e in &batch {
            for (name, attr) in e.attributes() {
                let v = attr.value.as_number().unwrap();
                history.append(e.id().as_str(), name, now, v);
            }
        }
    });
    let mut baseline = BehaviorBank::new(BaselineConfig::default());
    let signal = baseline.signal_attr().to_owned();
    let (baseline_bytes, ()) = live_bytes(OWNERS, || {
        for e in &batch {
            baseline.ingest(now, e.id().as_str(), e.number(&signal).unwrap());
        }
    });
    // The broker keeps the entity itself, moved into an `Arc`: the batch's
    // buffer gives back the inline bytes the `Arc` takes, so what the
    // upserts add is the row beyond the entity.
    let mut broker = ContextBroker::new();
    let (broker_row, ()) = live_bytes(OWNERS, || {
        for e in batch {
            broker.upsert(now, e);
        }
    });

    let mut sync = FogSync::builder("fog", "cloud").build();
    let (sync_record, ()) = live_bytes(OWNERS, || {
        for (key, payload) in &wires {
            sync.enqueue(now, key, payload.clone()).unwrap();
        }
    });
    let mut cloud = CloudStore::new("cloud");
    let fog = NodeId::from("fog");
    let (cloud_record, ()) = live_bytes(OWNERS, || {
        for (seq, (key, payload)) in (1..).zip(&wires) {
            let record = UpdateRecord {
                seq,
                key: key.clone(),
                payload: payload.clone(),
                created_at: now,
            };
            assert!(cloud.apply_record(&fog, record));
        }
    });
    OwnerBytes {
        entity,
        broker_row,
        history: history_bytes,
        baseline: baseline_bytes,
        sync_record,
        cloud_record,
    }
}

/// Offers `n` frames from fresh unregistered ids, numbered from `from`,
/// to [`Platform::ingest_frame`], returning the process's live heap bytes
/// afterwards. The registry refuses each before its bytes are read.
fn rogue_burst(p: &mut Platform, from: u64, n: u64) -> i64 {
    let frame = [0x5a; 64];
    for i in from..from + n {
        let err = p
            .ingest_frame(SimTime::from_secs(i), &format!("rogue-{i}"), &frame)
            .unwrap_err();
        assert!(matches!(err, IngestError::UnregisteredDevice(_)));
    }
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Samples per frozen segment of the read-path store.
const SEGMENT: u64 = 16;

/// Allocations made by the summary-served queries over one series
/// `segments` frozen segments deep, through [`Platform::query`]: a narrow
/// window (every segment but one pruned), a wide one that cuts through
/// its two edge segments (those decoded, the interior summarised or
/// decoded by kind) and the latest sample. Each request runs once to warm
/// up and is then counted over eight calls.
fn query_allocs(segments: u64) -> u64 {
    const ENTITY: &str = "urn:swamp:device:probe-0";
    const ATTR: &str = "moisture_vwc";
    let mut p = Platform::builder(DeploymentConfig::CloudOnly)
        .seed(42)
        .history_segment_threshold(Some(SEGMENT as usize))
        .build();
    let samples = segments * SEGMENT;
    for i in 0..samples {
        let mut e = Entity::new(ENTITY, "SoilProbe");
        e.set(ATTR, 0.2 + (i % 97) as f64 * 0.001);
        assert_eq!(p.ingest_entities(SimTime::from_secs(i), vec![e]), 1);
    }
    let series = || (ENTITY.to_owned(), ATTR.to_owned());
    let (entity, attr) = series();
    let mut requests = vec![QueryRequest::Last { entity, attr }];
    for (from, to) in [
        (SEGMENT + 2, SEGMENT + 6),
        (SEGMENT / 2, samples - SEGMENT / 2),
    ] {
        let (from, to) = (SimTime::from_secs(from), SimTime::from_secs(to));
        let (entity, attr) = series();
        requests.push(QueryRequest::Extremes {
            entity,
            attr,
            from,
            to,
        });
        let (entity, attr) = series();
        requests.push(QueryRequest::Aggregate {
            entity,
            attr,
            from,
            to,
        });
    }
    let before = p.observe();
    let mut total = 0;
    for req in &requests {
        assert!(!matches!(
            p.query(req),
            QueryResponse::Sample(None)
                | QueryResponse::Extremes(None)
                | QueryResponse::Aggregate(None)
        ));
        let (calls, ()) = alloc_calls(|| {
            for _ in 0..8 {
                std::hint::black_box(p.query(req));
            }
        });
        total += calls;
    }
    // The windows did the three kinds of segment work the budget is about,
    // in proportion to the depth of the store. Each request ran nine
    // times: both narrow ones prune every segment but one, the wide
    // `Extremes` summarises the interior, the wide `Aggregate` decodes it.
    let after = p.observe();
    let grew = |name: &str| after.counter(name).unwrap() - before.counter(name).unwrap();
    assert!(grew("query.segments_pruned") >= 9 * 2 * (segments - 1));
    assert!(grew("query.segments_summarized") >= 9 * (segments - 2));
    assert!(grew("query.segments_decoded") >= 9 * segments);
    total
}

#[test]
fn hot_paths_do_not_allocate_per_subscriber_or_per_append() {
    // --- Broker fan-out: allocations are independent of subscriber count.
    // Each upsert allocates the same merge bookkeeping (changed-name
    // strings + one shared Arc slice) no matter how many subscribers it
    // fans out to; per-subscriber cost is an Arc refcount bump and a push
    // into a warm queue. A per-subscriber deep clone of the entity would
    // add thousands of allocations at 256 subscribers.
    let rounds = 100;
    let one = fanout_allocs(1, rounds);
    let many = fanout_allocs(256, rounds);
    assert!(
        many <= one + 8,
        "fan-out to 256 subscribers allocated {many} times vs {one} for 1 \
         subscriber over {rounds} rounds — per-subscriber copies crept in"
    );

    // --- History append: the steady state allocates nothing. The series
    // key is interned, lookup borrows the &str pair, and pushes land in
    // existing Vec capacity.
    let mut store = HistoryStore::new();
    for t in 0..1000u64 {
        store.append(
            "urn:swamp:device:probe-1",
            "moisture_vwc",
            SimTime::from_millis(t),
            0.25,
        );
    }
    let (calls, ()) = alloc_calls(|| {
        for t in 1000..1010u64 {
            store.append(
                "urn:swamp:device:probe-1",
                "moisture_vwc",
                SimTime::from_millis(t),
                0.25,
            );
        }
    });
    assert_eq!(
        calls, 0,
        "steady-state append must not allocate (interned key, warm Vec)"
    );

    // --- dump_sorted: keys are borrowed from the interner, so the dump
    // allocates about one sample vector per series (plus two collection
    // vectors and their growth), not three owned strings-and-vec per
    // series. With 64 series the old cloned-key dump sat near 3×64; the
    // borrowed dump must stay close to 1×64.
    let mut store = HistoryStore::new();
    let series = 64u64;
    for d in 0..series {
        let entity = format!("urn:swamp:device:probe-{d}");
        for t in 0..100u64 {
            store.append(&entity, "moisture_vwc", SimTime::from_millis(t), 0.25);
        }
    }
    store.compact();
    let (calls, dump) = alloc_calls(|| store.dump_sorted());
    assert_eq!(dump.len(), series as usize);
    assert!(
        calls <= series + 24,
        "dump_sorted over {series} series allocated {calls} times — \
         expected ~1 sample vector per series; owned key clones crept back in"
    );
    drop(dump);

    // --- A record's write path through an assembled platform, per
    // accepted record (parent commit: 29.66 / 29.66 / 10.52 / 33.39 /
    // 67.32). What is left, and who owns it:
    // - ingest, 3 + table growth: the exact-size sync payload and the
    //   record key, both kept by the uplink engine until the ack, and the
    //   encoded wire buffer (it becomes the cloud record's payload) —
    //   ingest puts the record on the uplink at once;
    // - with a subscriber, 4 more: the changed-name strings, their Vec and
    //   the shared `Arc<[String]>` every notification of the update holds;
    // - replicate, 1 + table growth + one ack payload per pump: the key
    //   the cloud run keeps;
    // - device_publish, 2: the sealed frame and its `telemetry/<id>`
    //   topic, both owned by the in-flight message (the sender's `NodeId`
    //   is the one its registry row keeps, shared; building it per frame
    //   read 3.00);
    // - a sealed frame pumped, 14: the subscribed ingest and the replicate
    //   legs above (≈ 8.2) plus the five allocations the decoded entity
    //   owns — its id, its type, its two attribute names and its
    //   attribute vector. The plaintext is opened into a buffer
    //   the platform keeps, and `Entity::read_compact` builds no tree
    //   (27.22 before both: a fresh plaintext, and a JSON tree of one
    //   allocation per container, key and string growth step). Restoring
    //   the tree decode in `validate_frame` reads "a sealed frame pumped
    //   end to end allocated 22.22 times (budget 13.5)"; opening into a fresh
    //   `Vec` per frame reads "… 14.22 times (budget 13.5)".
    let (first, quiet) = write_path_allocs(false, DEVICES);
    let (_, watched) = write_path_allocs(true, DEVICES);
    let (window_first, window) = write_path_allocs(false, DEFAULT_WINDOW);
    let (_, half_window) = write_path_allocs(false, DEFAULT_WINDOW / 2);
    let SealedPath {
        publish,
        first_sight,
        steady: sealed,
    } = sealed_path_allocs();
    eprintln!(
        "allocations per record: ingest {:.2} (subscribed {:.2}), replicate {:.2} \
         (subscribed {:.2}; a full window {:.3}, largest {} B; half a window {:.3}, \
         largest {} B), device_publish {:.2}, sealed frame pumped {:.2}; \
         first sight: ingest {:.2}, replicate {:.2}, sealed frame pumped {:.2}",
        quiet.ingest,
        watched.ingest,
        quiet.replicate,
        watched.replicate,
        window.replicate,
        window.largest_pump_alloc,
        half_window.replicate,
        half_window.largest_pump_alloc,
        publish,
        sealed,
        first.ingest,
        first.replicate,
        first_sight
    );
    assert!(
        quiet.ingest <= 3.0,
        "ingest_entities allocated {:.2} times per record with no subscriber (budget 3)",
        quiet.ingest
    );
    assert!(
        watched.ingest <= 7.0,
        "ingest_entities allocated {:.2} times per record with one subscriber (budget 7)",
        watched.ingest
    );
    assert!(
        quiet.replicate <= 2.0 && watched.replicate <= 2.0,
        "transmit + apply + ack allocated {:.2} times per record (budget 2)",
        quiet.replicate.max(watched.replicate)
    );
    // A pump that moves a whole window of records pays the same per
    // record, and nothing that grows with how many it moved: twice the
    // records cost twice the allocations up to a per-round constant, and no
    // single allocation is window × `Delivery`-sized scratch (425 984 bytes
    // at 4 096, past the allocator's 128 KiB mmap threshold — the
    // page-fault mechanism of DESIGN.md §18's `cliff.*` rows). The largest
    // is a key the cloud run keeps (27 bytes for
    // `urn:swamp:device:probe-4095`): the ack of an in-order window is one
    // 16-byte seq run, where an ack of 8 bytes per seq read 32 768.
    assert!(
        window.replicate <= quiet.replicate,
        "a full window replicated at {:.3} allocations per record, a 256-record round at {:.3}",
        window.replicate,
        quiet.replicate
    );
    let beyond_per_record =
        (window.replicate - half_window.replicate).abs() * DEFAULT_WINDOW as f64;
    assert!(
        beyond_per_record <= 64.0,
        "{:.3} allocations per record to replicate a window, {:.3} for half of one: \
         {beyond_per_record:.0} allocations of a window's are not per record",
        window.replicate,
        half_window.replicate
    );
    assert!(
        window.largest_pump_alloc <= 64,
        "a pump moving a full window made one allocation of {} bytes (budget 64)",
        window.largest_pump_alloc
    );
    assert!(
        publish <= 2.0,
        "device_publish allocated {publish:.2} times per call (budget 2)"
    );
    assert!(
        sealed <= 13.5,
        "a sealed frame pumped end to end allocated {sealed:.2} times (budget 13.5)"
    );
    // First sight adds what each table keeps per new key, once: the
    // cloud run's key only (a per-key `latest` index beside the run read
    // 3.38 against 2.23 while this leg also encoded the wire buffer), and
    // for a sealed frame the baseline's device name, the history's entity
    // and series keys and the broker entity: 22.73. The registry row keeps
    // no history handle (a per-row cache of tagged series ids read 24.74);
    // the range screen keeps nothing per device (its name index and device
    // table read 26.04; a string-keyed replay map beside the registry row
    // read 28.1; that and `latest` together 29.24; a series cache holding
    // its own copy of each attribute name read 30.02).
    assert!(
        first.replicate <= 1.5,
        "replicating a round of first-seen keys allocated {:.2} times per record (budget 1.5)",
        first.replicate
    );
    assert!(
        first_sight <= 23.0,
        "a device's first sealed frame pumped end to end allocated {first_sight:.2} times \
         (budget 23.0)"
    );

    // --- Live heap bytes per owner (DESIGN.md §6's table), and what the
    // platform holds per device after a first round of a window-sized
    // fleet and per record after a steady round. The counts repeat
    // exactly; each budget is the measured figure plus at most 5 %.
    let owners = owner_live_bytes();
    eprintln!(
        "live bytes: entity {:.1}, broker row {:.1}, history {:.1}, baseline {:.1}, \
         sync record {:.1}, cloud record {:.1}; platform per device after a first round \
         {:.1}, per record after a steady round {:.1}",
        owners.entity,
        owners.broker_row,
        owners.history,
        owners.baseline,
        owners.sync_record,
        owners.cloud_record,
        window_first.live,
        window.live
    );
    // An entity that keeps its attributes in a `BTreeMap`, whose first
    // insert allocates a whole eleven-slot node, reads 1 214 here.
    assert!(
        owners.entity <= 640.0,
        "a two-attribute probe entity holds {:.1} live bytes (budget 640)",
        owners.entity
    );
    // Measured 2 528.8 and 329.4 (3 216.8 and 329.4 with the map).
    assert!(
        window_first.live <= 2_650.0,
        "the platform holds {:.1} live bytes per device after a first round (budget 2 650)",
        window_first.live
    );
    assert!(
        window.live <= 345.0,
        "the platform gains {:.1} live bytes per record in a steady round (budget 345)",
        window.live
    );

    // --- Frames from ids the registry has never seen are refused before
    // anything is keyed by them: after a warm-up of 1 000, 10 000 more
    // from fresh ids leave the live heap flat, and each is counted where
    // the refusal is decided.
    let mut p = lossless_platform();
    let warm = rogue_burst(&mut p, 0, 1_000);
    let before = p.observe().counter("ingest.rejected_unregistered").unwrap();
    let burst = rogue_burst(&mut p, 1_000, 10_000);
    let refused = p.observe().counter("ingest.rejected_unregistered").unwrap() - before;
    assert_eq!(refused, 10_000);
    assert!(
        burst - warm <= 4_096,
        "10 000 frames from fresh unregistered ids grew the live heap by {} bytes",
        burst - warm
    );

    // --- The read path. A summary-served query owns nothing it returns
    // (`Option` of a few numbers) and scans segments in place, so it
    // allocates nothing at any depth. A scan that decodes each segment
    // into a scratch vector before folding it (`seg.iter().collect()` in
    // `Series::for_each_in_window`) turns the 0 into 120 at 4 segments and
    // 6 168 at 256.
    for segments in [4, 256] {
        let calls = query_allocs(segments);
        assert_eq!(
            calls, 0,
            "Extremes/Aggregate/Last over {segments} frozen segments allocated {calls} times"
        );
    }
}
