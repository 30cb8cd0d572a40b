//! `WorkloadSpec` → `CompiledWorkload`: the deterministic compiler from
//! a pilot profile to a per-round schedule of labeled NGSI records.
//!
//! Compilation is a pure function of the spec. Every device owns a
//! [`SimRng`] split off the spec seed by device id, and physics
//! ([`MoistureSignal::advance`]/[`MoistureSignal::sense`]) consume
//! randomness every round whether or not the round's sample is
//! delivered — so the *delivery shaping* (cadence, drone windows,
//! partitions) can never bend the *physical* signal. That is what makes
//! the same spec byte-identical ([`CompiledWorkload::stream_digest`])
//! and the per-pilot streams independent of each other.
//!
//! Delivery conservation: every record that enters the delivery
//! pipeline (`offered`) is eventually emitted (`generated`) — Guaspari
//! flushes buffered backlogs inside contact windows and at
//! end-of-horizon, MATOPIBA's partition heal flushes the queued storm —
//! so `generated == offered` for every compiled workload.

use std::collections::{BTreeMap, BTreeSet};

use swamp_codec::ngsi::{Attribute, Entity};
use swamp_sim::{Fnv1a, SimDuration, SimRng, SimTime};

use crate::signal::MoistureSignal;

/// Entity type stamped on every workload record.
pub const ENTITY_TYPE: &str = "SoilProbe";

/// Attribute name carrying the soil-moisture signal — the attribute the
/// behavioral baseline (`swamp_security::baseline`) correlates.
pub const SIGNAL_ATTR: &str = "moisture_vwc";

const MILLIS_PER_DAY: u64 = 24 * 60 * 60 * 1_000;

/// The four SWAMP pilots (paper §I), each compiled into a distinct
/// traffic profile by [`WorkloadSpec::compile`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pilot {
    /// Bologna canal-distribution consortium: diurnal telemetry —
    /// every probe reports each daytime round, one round in four by
    /// night, over a day-irrigated drawdown/refill cycle.
    Cbec,
    /// Cartagena intercrop horticulture: night-shifted and seasonal —
    /// one cohort reports only at night (when the irrigation window
    /// is open), the other on an every-other-round cadence, and ET
    /// swings over the growing season.
    Intercrop,
    /// Espírito Santo do Pinhal vineyard: mobile-fog drone collection —
    /// probes sample every round but deliver only inside their node's
    /// contact windows, flushing the buffered backlog in order.
    Guaspari,
    /// Brazilian cerrado (MATOPIBA) open-loop fleet: each probe offers
    /// a record with fixed probability per round regardless of platform
    /// state, and scheduled uplink partitions queue traffic that the
    /// heal releases as one reconnection storm.
    Matopiba,
}

impl Pilot {
    /// All four pilots, in paper order.
    pub fn all() -> [Pilot; 4] {
        [
            Pilot::Cbec,
            Pilot::Intercrop,
            Pilot::Guaspari,
            Pilot::Matopiba,
        ]
    }

    /// Short lowercase name (device-id prefix, RNG split label).
    pub fn name(&self) -> &'static str {
        match self {
            Pilot::Cbec => "cbec",
            Pilot::Intercrop => "intercrop",
            Pilot::Guaspari => "guaspari",
            Pilot::Matopiba => "matopiba",
        }
    }
}

/// Ground-truth label carried on the side of every emitted record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Label {
    /// Honest telemetry from a legitimate probe.
    Normal,
    /// Traffic from an injected identity that joined after the
    /// training horizon (Sybil burst).
    Sybil,
    /// Reading from a compromised sensor under cumulative additive
    /// drift.
    Tamper,
    /// Reading taken while an attacker forces the actuator on
    /// (back-to-back refill jumps).
    Takeover,
}

impl Label {
    /// Stable short name (fixture keys, digests).
    pub fn as_str(&self) -> &'static str {
        match self {
            Label::Normal => "normal",
            Label::Sybil => "sybil",
            Label::Tamper => "tamper",
            Label::Takeover => "takeover",
        }
    }

    fn as_byte(self) -> u8 {
        match self {
            Label::Normal => 0,
            Label::Sybil => 1,
            Label::Tamper => 2,
            Label::Takeover => 3,
        }
    }
}

/// A labeled attack overlay. Tamper victims are taken from the *front*
/// of the fleet and takeover victims from the *back*, so overlays stay
/// disjoint as long as their device counts sum to at most the fleet
/// size.
#[derive(Clone, Debug, PartialEq)]
pub enum AttackOverlay {
    /// `count` fake identities appear at `start_round` and inject a
    /// bounded random-walk signal every round for `rounds` rounds.
    SybilBurst {
        start_round: usize,
        rounds: usize,
        count: usize,
    },
    /// The first `devices` probes report values with a cumulative
    /// additive drift of `drift_per_round` from `start_round` to the
    /// end of the horizon (a compromised sensor stays compromised).
    TamperDrift {
        start_round: usize,
        devices: usize,
        drift_per_round: f64,
    },
    /// The last `devices` probes have their irrigation actuator forced
    /// on each round in `[start_round, start_round + rounds)` —
    /// physical moisture jumps every round.
    ActuatorTakeover {
        start_round: usize,
        rounds: usize,
        devices: usize,
    },
}

/// One drone contact window: node `node` can deliver in
/// `[start, end)`. Windows are non-overlapping per node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContactWindow {
    pub node: usize,
    pub start: SimTime,
    pub end: SimTime,
}

/// One emitted record plus its ground truth.
#[derive(Clone, Debug)]
pub struct LabeledRecord {
    /// The NGSI update (single `moisture_vwc` attribute stamped with
    /// the sample time).
    pub entity: Entity,
    /// Device id (the entity id, duplicated for cheap set building).
    pub device: String,
    /// Ground truth for this record.
    pub label: Label,
    /// When the sample was physically taken (≤ the batch round time
    /// for buffered deliveries).
    pub sampled_at: SimTime,
}

/// All records delivered in one round.
#[derive(Clone, Debug, Default)]
pub struct RoundBatch {
    /// Delivery time of the round.
    pub at: SimTime,
    pub records: Vec<LabeledRecord>,
}

impl RoundBatch {
    fn new(at: SimTime) -> Self {
        RoundBatch {
            at,
            records: Vec::new(),
        }
    }
}

/// The deterministic workload description: pilot, seed, fleet size,
/// horizon and optional attack overlays.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    pub pilot: Pilot,
    pub seed: u64,
    /// Legitimate fleet size (Sybil identities come on top).
    pub devices: usize,
    /// Horizon in rounds; `compile` emits exactly this many batches.
    pub rounds: usize,
    /// Time of round 0.
    pub start: SimTime,
    /// Round cadence (default 30 min — 48 rounds per simulated day).
    pub step: SimDuration,
    pub attacks: Vec<AttackOverlay>,
}

impl WorkloadSpec {
    /// A spec with the default cadence (30-minute rounds starting at
    /// t = 60 s) and no attacks.
    pub fn new(pilot: Pilot, seed: u64, devices: usize, rounds: usize) -> Self {
        WorkloadSpec {
            pilot,
            seed,
            devices,
            rounds,
            start: SimTime::from_secs(60),
            step: SimDuration::from_mins(30),
            attacks: Vec::new(),
        }
    }

    /// Adds labeled attack overlays.
    pub fn with_attacks(mut self, attacks: Vec<AttackOverlay>) -> Self {
        self.attacks = attacks;
        self
    }

    /// Declared per-round arrival bounds for *honest* traffic, as
    /// fractions of the fleet, holding on every round outside
    /// partitions/storms. `None` for Guaspari, whose per-round
    /// arrivals are bursty by design (0 between contacts, a backlog
    /// flush inside them) — its invariant is conservation, not rate.
    /// Bounds are sized for fleets of ≥ 64 devices (binomial spread).
    pub fn declared_rate_bounds(&self) -> Option<(f64, f64)> {
        match self.pilot {
            // Day rounds: the whole fleet. Night rounds: one in four.
            Pilot::Cbec => Some((0.15, 1.0)),
            // Night: cohort A (half) + half of cohort B = 3/4 of the
            // fleet. Day: half of cohort B = 1/4.
            Pilot::Intercrop => Some((0.12, 0.85)),
            Pilot::Guaspari => None,
            // Open loop: Bernoulli(0.6) per device per round.
            Pilot::Matopiba => Some((0.35, 0.85)),
        }
    }

    /// The round index → delivery time mapping used by `compile`.
    pub fn round_time(&self, round: usize) -> SimTime {
        self.start + self.step * round as u64
    }

    /// Compiles the spec into its per-round schedule. Pure: same spec,
    /// byte-identical stream.
    pub fn compile(&self) -> CompiledWorkload {
        Compiler::new(self).run()
    }
}

/// The compiled schedule plus the metadata the property suite and the
/// E16 harness score against.
#[derive(Clone, Debug)]
pub struct CompiledWorkload {
    pub pilot: Pilot,
    pub seed: u64,
    /// Exactly `spec.rounds` batches, one per round (possibly empty).
    pub batches: Vec<RoundBatch>,
    /// Records emitted across all batches.
    pub generated: u64,
    /// Records that entered the delivery pipeline (emitted or
    /// buffered). Always equals `generated`: buffers flush inside
    /// contact windows, at partition heals and at end-of-horizon.
    pub offered: u64,
    /// Ground-truth record counts per label.
    pub label_counts: BTreeMap<Label, u64>,
    /// Guaspari drone contact windows (empty for other pilots).
    pub contact_windows: Vec<ContactWindow>,
    /// MATOPIBA uplink partitions as `[start, end)` delivery-time
    /// windows (empty for other pilots). No record is delivered inside
    /// a partition; the heal round carries the storm.
    pub partitions: Vec<(SimTime, SimTime)>,
    /// Legitimate device ids, in fleet order.
    pub devices: Vec<String>,
    /// Ground truth: every device (incl. Sybil identities) that
    /// emitted at least one non-[`Label::Normal`] record.
    pub attack_devices: BTreeSet<String>,
}

impl CompiledWorkload {
    /// FNV-1a digest over the full delivery stream — batch times,
    /// device ids, labels and serialized entities. Two compilations of
    /// the same spec produce the same digest, bit for bit.
    pub fn stream_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        let mut wire = String::new();
        for batch in &self.batches {
            h.write(&batch.at.as_millis().to_le_bytes());
            for r in &batch.records {
                h.write(r.device.as_bytes());
                h.write(&[0xff, r.label.as_byte()]);
                h.write(&r.sampled_at.as_millis().to_le_bytes());
                wire.clear();
                r.entity.write_compact(&mut wire);
                h.write(wire.as_bytes());
                h.write(&[0xfe]);
            }
        }
        h.finish()
    }

    /// Total records carrying the given label.
    pub fn label_count(&self, label: Label) -> u64 {
        self.label_counts.get(&label).copied().unwrap_or(0)
    }
}

/// One legitimate probe in flight: physics, identity, delivery state.
struct DeviceSim {
    id: String,
    rng: SimRng,
    signal: MoistureSignal,
    /// Cadence phase for sub-sampled reporting (CBEC nights,
    /// Intercrop cohort B).
    phase: u64,
    /// Intercrop: 0 = night cohort, 1 = cadence cohort.
    cohort: u8,
    /// Guaspari: index of the drone node serving this probe.
    node: usize,
    /// Buffered samples awaiting delivery (Guaspari between contacts,
    /// MATOPIBA during partitions).
    buffer: Vec<(SimTime, f64, Label)>,
    /// Cumulative tamper drift applied to reported values.
    drift: f64,
}

/// One injected Sybil identity: a bounded random walk.
struct SybilSim {
    id: String,
    rng: SimRng,
    value: f64,
    start: usize,
    end: usize,
    buffer: Vec<(SimTime, f64, Label)>,
}

struct Compiler<'a> {
    spec: &'a WorkloadSpec,
    devices: Vec<DeviceSim>,
    sybils: Vec<SybilSim>,
    tamper: Option<(usize, usize, f64)>, // (start_round, n, drift/round)
    takeover: Option<(usize, usize, usize)>, // (start_round, end_round, n)
    windows: Vec<ContactWindow>,
    /// Guaspari: per-node contact rounds as (start, end) round ranges.
    node_rounds: Vec<Vec<(usize, usize)>>,
    partitions_r: Vec<(usize, usize)>,
    offered: u64,
    label_counts: BTreeMap<Label, u64>,
}

impl<'a> Compiler<'a> {
    fn new(spec: &'a WorkloadSpec) -> Self {
        let mut root = SimRng::seed_from(spec.seed);
        let mut rng = root.split("workload").split(spec.pilot.name());
        let night_refill = spec.pilot == Pilot::Intercrop;
        let season_amp = if spec.pilot == Pilot::Intercrop {
            0.25
        } else {
            0.0
        };
        let nodes = match spec.pilot {
            Pilot::Guaspari => (spec.devices / 8).max(1),
            _ => 1,
        };

        let devices: Vec<DeviceSim> = (0..spec.devices)
            .map(|i| {
                let id = format!("urn:swamp:device:{}-{:04}", spec.pilot.name(), i);
                let mut drng = rng.split(&id);
                let signal = MoistureSignal::new(&mut drng, night_refill, season_amp);
                let phase = drng.below(8);
                DeviceSim {
                    id,
                    rng: drng,
                    signal,
                    phase,
                    cohort: (i % 2) as u8,
                    node: i % nodes,
                    buffer: Vec::new(),
                    drift: 0.0,
                }
            })
            .collect();

        // Guaspari contact schedule: one window per node per simulated
        // day, at a per-node offset, lasting WINDOW_ROUNDS rounds.
        // One-per-day at a fixed offset ⇒ non-overlapping per node.
        const WINDOW_ROUNDS: usize = 4;
        let mut windows = Vec::new();
        let mut node_rounds = vec![Vec::new(); nodes];
        if spec.pilot == Pilot::Guaspari {
            let per_day = ((MILLIS_PER_DAY / spec.step.as_millis().max(1)) as usize).max(1);
            let mut wrng = rng.split("contact-windows");
            for (node, rounds) in node_rounds.iter_mut().enumerate() {
                let slack = per_day.saturating_sub(WINDOW_ROUNDS).max(1);
                let offset = wrng.below(slack as u64) as usize;
                let mut day0 = 0usize;
                while day0 < spec.rounds {
                    let s = day0 + offset;
                    if s >= spec.rounds {
                        break;
                    }
                    let e = (s + WINDOW_ROUNDS).min(spec.rounds);
                    rounds.push((s, e));
                    windows.push(ContactWindow {
                        node,
                        start: spec.round_time(s),
                        end: spec.round_time(e),
                    });
                    day0 += per_day;
                }
            }
        }

        // MATOPIBA partition schedule: two uplink outages placed at
        // fixed fractions of the horizon; each heal round carries the
        // reconnection storm.
        let partitions_r = if spec.pilot == Pilot::Matopiba {
            let r = spec.rounds;
            vec![(r * 11 / 20, r * 13 / 20), (r * 16 / 20, r * 17 / 20)]
                .into_iter()
                .filter(|(s, e)| e > s && *e < r)
                .collect()
        } else {
            Vec::new()
        };

        // Resolve attack overlays. Tamper takes the front of the
        // fleet, takeover the back; counts are clamped to the fleet.
        let mut sybils = Vec::new();
        let mut tamper = None;
        let mut takeover = None;
        for overlay in &spec.attacks {
            match *overlay {
                AttackOverlay::SybilBurst {
                    start_round,
                    rounds,
                    count,
                } => {
                    let mut srng = rng.split("sybil");
                    for k in 0..count {
                        let id = format!("urn:swamp:device:{}-sybil-{:03}", spec.pilot.name(), k);
                        let mut s = srng.split(&id);
                        let value = s.uniform_range(0.15, 0.35);
                        sybils.push(SybilSim {
                            id,
                            rng: s,
                            value,
                            start: start_round,
                            end: start_round.saturating_add(rounds),
                            buffer: Vec::new(),
                        });
                    }
                }
                AttackOverlay::TamperDrift {
                    start_round,
                    devices: n,
                    drift_per_round,
                } => {
                    tamper = Some((start_round, n.min(spec.devices), drift_per_round));
                }
                AttackOverlay::ActuatorTakeover {
                    start_round,
                    rounds,
                    devices: n,
                } => {
                    takeover = Some((
                        start_round,
                        start_round.saturating_add(rounds),
                        n.min(spec.devices),
                    ));
                }
            }
        }

        Compiler {
            spec,
            devices,
            sybils,
            tamper,
            takeover,
            windows,
            node_rounds,
            partitions_r,
            offered: 0,
            label_counts: BTreeMap::new(),
        }
    }

    fn in_partition(&self, r: usize) -> bool {
        self.partitions_r.iter().any(|&(s, e)| r >= s && r < e)
    }

    fn in_contact(&self, node: usize, r: usize) -> bool {
        self.node_rounds[node].iter().any(|&(s, e)| r >= s && r < e)
    }

    fn run(mut self) -> CompiledWorkload {
        let spec = self.spec;
        let n_tamper = self.tamper.map(|(_, n, _)| n).unwrap_or(0);
        let takeover_from = spec.devices - self.takeover.map(|(_, _, n)| n).unwrap_or(0);
        let mut batches: Vec<RoundBatch> = Vec::with_capacity(spec.rounds);

        for r in 0..spec.rounds {
            let at = spec.round_time(r);
            let season = r as f64 / spec.rounds.max(1) as f64;
            let last = r + 1 == spec.rounds;
            let mut batch = RoundBatch::new(at);

            for i in 0..self.devices.len() {
                let d = &mut self.devices[i];
                d.signal.advance(at, season, &mut d.rng);
                let hijacked = i >= takeover_from
                    && self
                        .takeover
                        .map(|(s, e, _)| r >= s && r < e)
                        .unwrap_or(false);
                if hijacked {
                    d.signal.hijack();
                }
                let mut v = d.signal.sense(&mut d.rng);
                let mut label = Label::Normal;
                if hijacked {
                    label = Label::Takeover;
                }
                if let Some((start, _, per_round)) = self.tamper {
                    if i < n_tamper && r >= start {
                        // Cap the drift so the report does not pin at
                        // the sensor ceiling forever.
                        d.drift = (d.drift + per_round).min(0.35);
                        v = (v + d.drift).clamp(0.01, 0.59);
                        label = Label::Tamper;
                    }
                }

                let offer = match spec.pilot {
                    Pilot::Cbec => at.is_day() || (r as u64 + d.phase).is_multiple_of(4),
                    Pilot::Intercrop => {
                        if d.cohort == 0 {
                            !at.is_day()
                        } else {
                            (r as u64 + d.phase).is_multiple_of(2)
                        }
                    }
                    // Every sample enters the pipeline (buffered until
                    // a drone contact).
                    Pilot::Guaspari => true,
                    // Open loop: the offered load never adapts; the
                    // draw happens every round so partitions cannot
                    // bend the arrival process.
                    Pilot::Matopiba => d.rng.chance(0.6),
                };

                match spec.pilot {
                    Pilot::Guaspari => {
                        let d = &mut self.devices[i];
                        self.offered += 1;
                        *self.label_counts.entry(label).or_insert(0) += 1;
                        d.buffer.push((at, v, label));
                        if self.in_contact(self.devices[i].node, r) || last {
                            flush(&mut self.devices[i], &mut batch);
                        }
                    }
                    Pilot::Matopiba => {
                        let queued = self.in_partition(r);
                        let d = &mut self.devices[i];
                        if offer {
                            self.offered += 1;
                            *self.label_counts.entry(label).or_insert(0) += 1;
                        }
                        if queued {
                            if offer {
                                d.buffer.push((at, v, label));
                            }
                        } else {
                            flush(d, &mut batch);
                            if offer {
                                emit_record(&d.id, at, v, label, &mut batch);
                            }
                        }
                        if last {
                            flush(&mut self.devices[i], &mut batch);
                        }
                    }
                    Pilot::Cbec | Pilot::Intercrop => {
                        if offer {
                            self.offered += 1;
                            *self.label_counts.entry(label).or_insert(0) += 1;
                            emit_record(&self.devices[i].id, at, v, label, &mut batch);
                        }
                    }
                }
            }

            // Sybil identities ride the same uplink: they queue during
            // MATOPIBA partitions like everyone else.
            let queued = self.in_partition(r);
            for s in &mut self.sybils {
                if r >= s.start && r < s.end {
                    s.value = (s.value + s.rng.uniform_range(-0.02, 0.02)).clamp(0.05, 0.55);
                    self.offered += 1;
                    *self.label_counts.entry(Label::Sybil).or_insert(0) += 1;
                    if queued {
                        s.buffer.push((at, s.value, Label::Sybil));
                        continue;
                    }
                }
                if !queued {
                    for (sat, sv, sl) in std::mem::take(&mut s.buffer) {
                        emit_record(&s.id, sat, sv, sl, &mut batch);
                    }
                    if r >= s.start && r < s.end {
                        emit_record(&s.id, at, s.value, Label::Sybil, &mut batch);
                    }
                }
            }

            batches.push(batch);
        }

        let generated: u64 = batches.iter().map(|b| b.records.len() as u64).sum();
        let mut attack_devices = BTreeSet::new();
        for b in &batches {
            for rec in &b.records {
                if rec.label != Label::Normal {
                    attack_devices.insert(rec.device.clone());
                }
            }
        }
        CompiledWorkload {
            pilot: spec.pilot,
            seed: spec.seed,
            batches,
            generated,
            offered: self.offered,
            label_counts: self.label_counts,
            contact_windows: self.windows,
            partitions: self
                .partitions_r
                .iter()
                .map(|&(s, e)| (spec.round_time(s), spec.round_time(e)))
                .collect(),
            devices: self.devices.iter().map(|d| d.id.clone()).collect(),
            attack_devices,
        }
    }
}

/// Flushes a device's buffered backlog, oldest first.
fn flush(d: &mut DeviceSim, batch: &mut RoundBatch) {
    for (sat, v, label) in std::mem::take(&mut d.buffer) {
        emit_record(&d.id, sat, v, label, batch);
    }
}

fn emit_record(id: &str, sampled_at: SimTime, v: f64, label: Label, batch: &mut RoundBatch) {
    let mut e = Entity::new(id, ENTITY_TYPE);
    e.set_attribute(
        SIGNAL_ATTR,
        Attribute::new(v).observed_at(sampled_at.as_millis()),
    );
    batch.records.push(LabeledRecord {
        entity: e,
        device: id.to_owned(),
        label,
        sampled_at,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_is_deterministic_and_pilot_distinct() {
        let mut digests = Vec::new();
        for pilot in Pilot::all() {
            let spec = WorkloadSpec::new(pilot, 42, 24, 96);
            let a = spec.compile();
            let b = spec.compile();
            assert_eq!(a.stream_digest(), b.stream_digest(), "{pilot:?}");
            assert_eq!(a.batches.len(), 96);
            assert_eq!(a.generated, a.offered, "{pilot:?} must conserve");
            digests.push(a.stream_digest());
        }
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), 4, "pilot streams must differ");
    }

    #[test]
    fn seed_changes_the_stream() {
        let a = WorkloadSpec::new(Pilot::Cbec, 1, 16, 48).compile();
        let b = WorkloadSpec::new(Pilot::Cbec, 2, 16, 48).compile();
        assert_ne!(a.stream_digest(), b.stream_digest());
    }

    #[test]
    fn attack_free_streams_are_all_normal() {
        let w = WorkloadSpec::new(Pilot::Intercrop, 7, 16, 96).compile();
        assert_eq!(w.label_count(Label::Normal), w.generated);
        assert!(w.attack_devices.is_empty());
    }

    #[test]
    fn overlays_label_ground_truth() {
        let spec = WorkloadSpec::new(Pilot::Cbec, 11, 24, 192).with_attacks(vec![
            AttackOverlay::SybilBurst {
                start_round: 150,
                rounds: 30,
                count: 3,
            },
            AttackOverlay::TamperDrift {
                start_round: 150,
                devices: 2,
                drift_per_round: 0.008,
            },
            AttackOverlay::ActuatorTakeover {
                start_round: 150,
                rounds: 12,
                devices: 2,
            },
        ]);
        let w = spec.compile();
        assert!(w.label_count(Label::Sybil) > 0);
        assert!(w.label_count(Label::Tamper) > 0);
        assert!(w.label_count(Label::Takeover) > 0);
        // 3 sybils + 2 tamper victims + 2 takeover victims.
        assert_eq!(w.attack_devices.len(), 7);
        // Front/back victim split keeps the sets disjoint.
        assert!(w.attack_devices.contains("urn:swamp:device:cbec-0000"));
        assert!(w.attack_devices.contains("urn:swamp:device:cbec-0023"));
        assert_eq!(w.generated, w.offered);
    }

    #[test]
    fn guaspari_buffers_flush_in_order() {
        let w = WorkloadSpec::new(Pilot::Guaspari, 42, 16, 96).compile();
        assert!(!w.contact_windows.is_empty());
        // Per-device sample times are strictly increasing across the
        // whole delivery stream (in-order flush).
        let mut last: BTreeMap<&str, SimTime> = BTreeMap::new();
        for b in &w.batches {
            for r in &b.records {
                if let Some(prev) = last.get(r.device.as_str()) {
                    assert!(r.sampled_at > *prev, "{} out of order", r.device);
                }
                last.insert(r.device.as_str(), r.sampled_at);
                assert!(r.sampled_at <= b.at);
            }
        }
        // Every sample is eventually delivered.
        assert_eq!(w.generated, 16 * 96);
    }

    #[test]
    fn matopiba_partitions_queue_and_heal() {
        let w = WorkloadSpec::new(Pilot::Matopiba, 42, 32, 120).compile();
        assert_eq!(w.partitions.len(), 2);
        for b in &w.batches {
            let inside = w.partitions.iter().any(|&(s, e)| b.at >= s && b.at < e);
            if inside {
                assert!(b.records.is_empty(), "delivery inside a partition");
            }
        }
        assert_eq!(w.generated, w.offered, "heal must conserve the queue");
    }
}
