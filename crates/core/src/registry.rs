//! Device registry: which devices exist, who owns them, and their
//! platform-facing metadata. The ingestion pipeline consults it to reject
//! telemetry from unregistered (rogue) devices — the paper's "unauthorized
//! node in the network may send false information about the crop".

use std::collections::BTreeMap;

use swamp_sensors::device::DeviceKind;
use swamp_sim::SimTime;

/// A registered device's metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceRecord {
    /// Device kind.
    pub kind: DeviceKind,
    /// Owning principal (e.g. `"owner:matopiba"`).
    pub owner: String,
    /// When it was registered.
    pub registered_at: SimTime,
    /// Whether telemetry from it is currently accepted.
    pub enabled: bool,
    /// The frame sequence numbers admitted from it: the replay window.
    replay: ReplayWindow,
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
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::AlreadyRegistered(id) => {
                write!(f, "device {id:?} already registered")
            }
            RegistryError::Unknown(id) => write!(f, "unknown device {id:?}"),
        }
    }
}
impl std::error::Error for RegistryError {}

/// The device registry.
#[derive(Clone, Debug, Default)]
pub struct DeviceRegistry {
    devices: BTreeMap<String, DeviceRecord>,
}

impl DeviceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        DeviceRegistry::default()
    }

    /// Registers a device.
    ///
    /// # Errors
    /// [`RegistryError::AlreadyRegistered`] on id collision.
    pub fn register(
        &mut self,
        id: &str,
        kind: DeviceKind,
        owner: &str,
        now: SimTime,
    ) -> Result<(), RegistryError> {
        if self.devices.contains_key(id) {
            return Err(RegistryError::AlreadyRegistered(id.to_owned()));
        }
        self.devices.insert(
            id.to_owned(),
            DeviceRecord {
                kind,
                owner: owner.to_owned(),
                registered_at: now,
                enabled: true,
                replay: ReplayWindow::default(),
            },
        );
        Ok(())
    }

    /// Looks up a device.
    pub fn get(&self, id: &str) -> Option<&DeviceRecord> {
        self.devices.get(id)
    }

    /// Looks up a device's row for admission to update in place.
    pub(crate) fn get_mut(&mut self, id: &str) -> Option<&mut DeviceRecord> {
        self.devices.get_mut(id)
    }

    /// Enables/disables a device (quarantine on suspicion).
    ///
    /// # Errors
    /// [`RegistryError::Unknown`] if the device was never registered.
    pub fn set_enabled(&mut self, id: &str, enabled: bool) -> Result<(), RegistryError> {
        match self.devices.get_mut(id) {
            Some(d) => {
                d.enabled = enabled;
                Ok(())
            }
            None => Err(RegistryError::Unknown(id.to_owned())),
        }
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Iterates `(id, record)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &DeviceRecord)> {
        self.devices.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_active(r: &DeviceRegistry, id: &str) -> bool {
        r.get(id).is_some_and(|d| d.enabled)
    }

    #[test]
    fn register_and_lookup() {
        let mut r = DeviceRegistry::new();
        r.register("p1", DeviceKind::SoilProbe, "owner:cbec", SimTime::ZERO)
            .unwrap();
        assert!(is_active(&r, "p1"));
        assert_eq!(r.get("p1").unwrap().kind, DeviceKind::SoilProbe);
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn duplicate_rejected() {
        let mut r = DeviceRegistry::new();
        r.register("p1", DeviceKind::SoilProbe, "o", SimTime::ZERO)
            .unwrap();
        assert_eq!(
            r.register("p1", DeviceKind::Valve, "o", SimTime::ZERO),
            Err(RegistryError::AlreadyRegistered("p1".into()))
        );
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
        r.register("p1", DeviceKind::SoilProbe, "o", SimTime::ZERO)
            .unwrap();
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
            r.register(id, DeviceKind::SoilProbe, "o", SimTime::ZERO)
                .unwrap();
        }
        let mut admit = |id: &str, seq: u64| r.get_mut(id).unwrap().admit_seq(seq);
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
        r.register("a1", DeviceKind::SoilProbe, "owner:a", SimTime::ZERO)
            .unwrap();
        r.register("a2", DeviceKind::Valve, "owner:a", SimTime::ZERO)
            .unwrap();
        r.register("b1", DeviceKind::Pump, "owner:b", SimTime::ZERO)
            .unwrap();
        let rows: Vec<(&str, &str)> = r.iter().map(|(id, d)| (id, d.owner.as_str())).collect();
        assert_eq!(
            rows,
            [("a1", "owner:a"), ("a2", "owner:a"), ("b1", "owner:b")]
        );
    }
}
