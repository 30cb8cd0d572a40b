//! Device registry: which devices exist, who owns them, and their
//! platform-facing metadata. The ingestion pipeline consults it to reject
//! telemetry from unregistered (rogue) devices — the paper's "unauthorized
//! node in the network may send false information about the crop".
//!
//! A device's row is the one place its trust is kept: `enabled` is cleared
//! when the platform's range screen catches it sending a physically
//! impossible value (or an operator disables it), and one
//! [`DeviceRegistry::set_enabled`] call after review restores it.
//!
//! Registration hands out a dense [`DeviceSlot`]. A device's row is also
//! where the platform keeps each per-device table's handle for it (its
//! network node, keystore record, baseline state, history series), so a
//! frame resolves its sender by name once and reaches every later table
//! by index.

use std::collections::HashMap;

use swamp_crypto::keystore::KeyHandle;
use swamp_net::message::NodeId;
use swamp_security::baseline::BaselineHandle;
use swamp_sensors::device::DeviceKind;
use swamp_sim::SimTime;

use crate::history::SeriesId;

/// A registered device's place in the registry's row table, handed out
/// densely in registration order and valid for the registry that handed
/// it out (rows are never removed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceSlot(u32);

impl DeviceSlot {
    /// The slot as an index into slot-indexed tables.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A registered device's metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceRecord {
    /// Device kind.
    pub kind: DeviceKind,
    /// Owning principal (e.g. `"owner:matopiba"`).
    pub owner: String,
    /// When it was registered.
    pub registered_at: SimTime,
    /// Whether telemetry from it is currently accepted: the device's one
    /// trust bit, cleared by a range-screen hit or an operator.
    pub enabled: bool,
    /// The frame sequence numbers admitted from it: the replay window.
    replay: ReplayWindow,
    /// Its network node: the id `Network::add_node` built, shared.
    pub(crate) node: NodeId,
    /// Its record in the platform's keystore. Only the handle: the key
    /// itself is read through it per frame, so a revocation or rotation
    /// in the keystore applies to the next frame.
    pub(crate) key: KeyHandle,
    /// Its behavioral-baseline state, taken on its first stored sample of
    /// the baseline's signal.
    pub(crate) baseline: Option<BaselineHandle>,
    /// Its entity's history series, each tagged with its attribute's
    /// place in the platform's attribute table (no name is copied here).
    pub(crate) series: Vec<(u32, SeriesId)>,
}

impl DeviceRecord {
    /// Admits a frame sequence number: `true` if it is fresh, `false` for
    /// a replay or duplicate. See [`ReplayWindow`].
    pub(crate) fn admit_seq(&mut self, seq: u64) -> bool {
        self.replay.admit(seq)
    }
}

/// The anti-replay window of RFC 6479 over one device's frame sequence
/// numbers: the highest seq admitted, and a bitmap of which of the 64
/// seqs at and below it were admitted. A seq above the highest is fresh
/// (gaps allowed); one inside the window is fresh once; one 64 or more
/// below the highest is refused, as it can no longer be told apart from a
/// replay. So an honest frame that a later one overtook on the device hop
/// is still admitted, and no frame is admitted twice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ReplayWindow {
    /// The highest seq admitted (meaningless while `seen` is 0).
    top: u64,
    /// Bit `i` set: seq `top − i` was admitted. 0 until the first admit.
    seen: u64,
}

impl ReplayWindow {
    fn admit(&mut self, seq: u64) -> bool {
        if self.seen == 0 || seq > self.top {
            let shift = seq.wrapping_sub(self.top);
            self.seen = if self.seen == 0 || shift >= 64 {
                1
            } else {
                self.seen << shift | 1
            };
            self.top = seq;
            return true;
        }
        let behind = self.top - seq;
        if behind >= 64 || self.seen >> behind & 1 == 1 {
            return false;
        }
        self.seen |= 1 << behind;
        true
    }
}

/// Registry errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// A device with this id already exists.
    AlreadyRegistered(String),
    /// No such device.
    Unknown(String),
    /// The empty string is no device id (no network node can carry it).
    EmptyId,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::AlreadyRegistered(id) => {
                write!(f, "device {id:?} already registered")
            }
            RegistryError::Unknown(id) => write!(f, "unknown device {id:?}"),
            RegistryError::EmptyId => write!(f, "empty device id"),
        }
    }
}
impl std::error::Error for RegistryError {}

/// The device registry.
#[derive(Clone, Debug, Default)]
pub struct DeviceRegistry {
    /// Device id → slot. Hashed: it is looked up, never iterated for
    /// output ([`DeviceRegistry::iter`] sorts).
    index: HashMap<String, DeviceSlot>,
    /// Rows by slot.
    rows: Vec<DeviceRecord>,
}

impl DeviceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        DeviceRegistry::default()
    }

    /// Registers a device and returns its slot. `attach` makes the
    /// device's network node and keystore record, and is called only once
    /// the id is known to be free, so a refused registration changes
    /// nothing anywhere.
    ///
    /// # Errors
    /// [`RegistryError::EmptyId`] for the empty id and
    /// [`RegistryError::AlreadyRegistered`] on id collision; `attach` is
    /// not called then.
    ///
    /// # Panics
    /// Panics past 2^32 devices.
    #[expect(clippy::expect_used, reason = "documented under # Panics")]
    pub(crate) fn register(
        &mut self,
        id: &str,
        kind: DeviceKind,
        owner: &str,
        now: SimTime,
        attach: impl FnOnce() -> (NodeId, KeyHandle),
    ) -> Result<DeviceSlot, RegistryError> {
        if id.is_empty() {
            return Err(RegistryError::EmptyId);
        }
        if self.index.contains_key(id) {
            return Err(RegistryError::AlreadyRegistered(id.to_owned()));
        }
        let slot = DeviceSlot(u32::try_from(self.rows.len()).expect("fewer than 2^32 devices"));
        let (node, key) = attach();
        self.rows.push(DeviceRecord {
            kind,
            owner: owner.to_owned(),
            registered_at: now,
            enabled: true,
            replay: ReplayWindow::default(),
            node,
            key,
            baseline: None,
            series: Vec::new(),
        });
        self.index.insert(id.to_owned(), slot);
        Ok(slot)
    }

    /// Looks up a device.
    pub fn get(&self, id: &str) -> Option<&DeviceRecord> {
        self.slot(id).and_then(|slot| self.row(slot))
    }

    /// A device's slot: the one string-keyed lookup a frame pays.
    pub(crate) fn slot(&self, id: &str) -> Option<DeviceSlot> {
        self.index.get(id).copied()
    }

    /// The row at `slot`.
    pub(crate) fn row(&self, slot: DeviceSlot) -> Option<&DeviceRecord> {
        self.rows.get(slot.index())
    }

    /// The row at `slot`, to update in place.
    pub(crate) fn row_mut(&mut self, slot: DeviceSlot) -> Option<&mut DeviceRecord> {
        self.rows.get_mut(slot.index())
    }

    /// Enables/disables a device: quarantine on suspicion, or
    /// re-admission after review (the one call that re-admits a device
    /// the range screen cut off).
    ///
    /// # Errors
    /// [`RegistryError::Unknown`] if the device was never registered.
    pub fn set_enabled(&mut self, id: &str, enabled: bool) -> Result<(), RegistryError> {
        match self
            .slot(id)
            .and_then(|slot| self.rows.get_mut(slot.index()))
        {
            Some(d) => {
                d.enabled = enabled;
                Ok(())
            }
            None => Err(RegistryError::Unknown(id.to_owned())),
        }
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates `(id, record)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &DeviceRecord)> {
        let mut ids: Vec<(&str, DeviceSlot)> = self
            .index
            .iter()
            .map(|(id, &slot)| (id.as_str(), slot))
            .collect();
        ids.sort_unstable_by_key(|&(id, _)| id);
        ids.into_iter()
            .filter_map(|(id, slot)| Some((id, self.row(slot)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registers `id` at time zero with a node and a keystore record of
    /// its own.
    fn register(
        r: &mut DeviceRegistry,
        id: &str,
        kind: DeviceKind,
        owner: &str,
    ) -> Result<DeviceSlot, RegistryError> {
        let mut keys = swamp_crypto::keystore::Keystore::new(b"test");
        r.register(id, kind, owner, SimTime::ZERO, || {
            (NodeId::from(id), keys.provision(id))
        })
    }

    fn is_active(r: &DeviceRegistry, id: &str) -> bool {
        r.get(id).is_some_and(|d| d.enabled)
    }

    #[test]
    fn register_and_lookup() {
        let mut r = DeviceRegistry::new();
        register(&mut r, "p1", DeviceKind::SoilProbe, "owner:cbec").unwrap();
        assert!(is_active(&r, "p1"));
        assert_eq!(r.get("p1").unwrap().kind, DeviceKind::SoilProbe);
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn duplicate_rejected() {
        let mut r = DeviceRegistry::new();
        register(&mut r, "p1", DeviceKind::SoilProbe, "o").unwrap();
        assert_eq!(
            register(&mut r, "p1", DeviceKind::Valve, "o"),
            Err(RegistryError::AlreadyRegistered("p1".into()))
        );
    }

    #[test]
    fn empty_id_refused_and_slots_are_dense() {
        let mut r = DeviceRegistry::new();
        assert_eq!(
            register(&mut r, "", DeviceKind::SoilProbe, "o"),
            Err(RegistryError::EmptyId)
        );
        assert!(r.is_empty());
        for (i, id) in ["b", "a", "c"].into_iter().enumerate() {
            let slot = register(&mut r, id, DeviceKind::SoilProbe, "o").unwrap();
            assert_eq!(slot.index(), i);
            assert_eq!(r.slot(id), Some(slot));
        }
        assert_eq!(r.slot("d"), None);
        // A refused id never reaches `attach`.
        for id in ["", "a"] {
            let refused = r.register(id, DeviceKind::Valve, "o", SimTime::ZERO, || {
                panic!("attach ran for {id:?}")
            });
            assert!(refused.is_err());
        }
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn unknown_not_active() {
        let r = DeviceRegistry::new();
        assert!(!is_active(&r, "ghost"));
        assert!(r.get("ghost").is_none());
    }

    #[test]
    fn quarantine_flow() {
        let mut r = DeviceRegistry::new();
        register(&mut r, "p1", DeviceKind::SoilProbe, "o").unwrap();
        r.set_enabled("p1", false).unwrap();
        assert!(!is_active(&r, "p1"));
        r.set_enabled("p1", true).unwrap();
        assert!(is_active(&r, "p1"));
        assert_eq!(
            r.set_enabled("ghost", true),
            Err(RegistryError::Unknown("ghost".into()))
        );
    }

    #[test]
    fn seq_window_detects_replays_and_admits_reordered_frames() {
        let mut r = DeviceRegistry::new();
        for id in ["d", "e"] {
            register(&mut r, id, DeviceKind::SoilProbe, "o").unwrap();
        }
        let mut admit = |id: &str, seq: u64| {
            let slot = r.slot(id).unwrap();
            r.row_mut(slot).unwrap().admit_seq(seq)
        };
        assert!(admit("d", 0));
        assert!(admit("d", 1));
        assert!(admit("d", 5), "a gap is fresh");
        assert!(admit("d", 3), "overtaken inside the window: fresh once");
        assert!(!admit("d", 3), "then a replay");
        assert!(!admit("d", 5), "the highest seen again");
        assert!(!admit("d", 0), "admitted before the highest moved");
        assert!(admit("d", 6));
        assert!(admit("d", 69));
        assert!(
            admit("d", 6 + 64 - 1 + 1),
            "every seq above 6 is still fresh once"
        );
        assert!(
            admit("d", 7),
            "63 behind the highest (70): inside the window"
        );
        assert!(!admit("d", 6), "64 behind: outside the window, refused");
        assert!(!admit("d", 2), "far behind");
        assert!(admit("d", 1_000), "a jump past the window clears it");
        assert!(!admit("d", 1_000 - 64));
        assert!(admit("d", 1_000 - 63));
        assert!(admit("d", u64::MAX));
        assert!(!admit("d", u64::MAX));
        assert!(!admit("d", 0), "far behind u64::MAX");
        // Independent per device: the first seq is fresh whatever it is.
        assert!(admit("e", 100));
        assert!(admit("e", 99));
    }

    #[test]
    fn iter_lists_devices_in_id_order_with_their_owners() {
        let mut r = DeviceRegistry::new();
        register(&mut r, "a1", DeviceKind::SoilProbe, "owner:a").unwrap();
        register(&mut r, "a2", DeviceKind::Valve, "owner:a").unwrap();
        register(&mut r, "b1", DeviceKind::Pump, "owner:b").unwrap();
        let rows: Vec<(&str, &str)> = r.iter().map(|(id, d)| (id, d.owner.as_str())).collect();
        assert_eq!(
            rows,
            [("a1", "owner:a"), ("a2", "owner:a"), ("b1", "owner:b")]
        );
    }
}
