//! Per-device key management.
//!
//! The SWAMP platform provisions each field device with a device key derived
//! from a pilot master secret. The keystore is the platform-side registry:
//! it derives, rotates and revokes device keys, and hands out the
//! [`SecretKey`] used to open frames from a given device.
//!
//! Derivation (an HKDF over a formatted label) runs once per device and
//! epoch: the first [`Keystore::device_key`] after [`Keystore::provision`]
//! or [`Keystore::rotate`] derives the key and keeps it in the device's
//! record, and every later per-frame lookup is a copy of the 32-byte key.
//! Provisioning itself derives nothing, so registering a fleet costs no
//! key schedule for devices that never send.
//!
//! Records live in one dense table, addressed by the [`KeyHandle`]
//! [`Keystore::provision`] hands out, behind one name index. A caller that
//! keeps the handle ([`Keystore::key_by_handle`]) skips the name lookup;
//! revocation and rotation by name act on the same record, so they take
//! effect on its next lookup either way.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use crate::aead::SecretKey;

/// Epoch counter for key rotation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyEpoch(pub u32);

/// Result of looking up a device key.
#[derive(Clone, Debug)]
pub struct DeviceKey {
    /// The derived secret key for this device and epoch.
    pub key: SecretKey,
    /// The epoch the key belongs to.
    pub epoch: KeyEpoch,
}

/// Error when a device is unknown or revoked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeystoreError {
    /// The device id was never provisioned.
    UnknownDevice(String),
    /// The device was revoked (compromise or decommissioning).
    Revoked(String),
}

impl std::fmt::Display for KeystoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeystoreError::UnknownDevice(id) => write!(f, "unknown device {id:?}"),
            KeystoreError::Revoked(id) => write!(f, "device {id:?} is revoked"),
        }
    }
}
impl std::error::Error for KeystoreError {}

/// A provisioned device's place in a [`Keystore`]'s record table, valid
/// for the keystore that handed it out (records are never removed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyHandle(u32);

#[derive(Clone, Debug)]
struct DeviceRecord {
    /// The device id, shared with the name index's key.
    id: Arc<str>,
    epoch: KeyEpoch,
    revoked: bool,
    /// `derive(device_id, epoch)`, filled by the first lookup of this
    /// epoch; `rotate` empties it. (`OnceLock`, not `OnceCell`: the
    /// platform that owns the keystore must stay `Sync`.)
    key: OnceLock<SecretKey>,
}

/// Platform-side key registry, rooted in a pilot master secret.
///
/// # Example
/// ```
/// use swamp_crypto::keystore::Keystore;
/// let mut ks = Keystore::new(b"pilot-master-secret");
/// ks.provision("probe-07");
/// let dk = ks.device_key("probe-07").unwrap();
/// assert_eq!(dk.epoch.0, 0);
/// ```
#[derive(Clone, Debug)]
pub struct Keystore {
    master: Vec<u8>,
    /// Device id → handle: the one name index.
    index: BTreeMap<Arc<str>, KeyHandle>,
    /// Records by handle.
    records: Vec<DeviceRecord>,
}

impl Keystore {
    /// Creates a keystore rooted in `master_secret`.
    pub fn new(master_secret: &[u8]) -> Self {
        Keystore {
            master: master_secret.to_vec(),
            index: BTreeMap::new(),
            records: Vec::new(),
        }
    }

    /// Provisions a device at epoch 0 and returns its handle.
    /// Re-provisioning an existing device is a no-op (its epoch and
    /// revocation state are preserved) that returns the same handle.
    ///
    /// # Panics
    /// Panics past 2^32 provisioned devices.
    #[expect(clippy::expect_used, reason = "documented under # Panics")]
    pub fn provision(&mut self, device_id: &str) -> KeyHandle {
        if let Some(&handle) = self.index.get(device_id) {
            return handle;
        }
        let handle = KeyHandle(u32::try_from(self.records.len()).expect("fewer than 2^32 devices"));
        let id: Arc<str> = Arc::from(device_id);
        self.records.push(DeviceRecord {
            id: Arc::clone(&id),
            epoch: KeyEpoch(0),
            revoked: false,
            key: OnceLock::new(),
        });
        self.index.insert(id, handle);
        handle
    }

    /// The handle of a provisioned device, if it was provisioned.
    fn handle(&self, device_id: &str) -> Option<KeyHandle> {
        self.index.get(device_id).copied()
    }

    /// Looks up the current key for a device: a copy of the key derived
    /// by the first lookup since the device was provisioned or last
    /// rotated. Unknown and revoked devices are refused before any key is
    /// derived or touched.
    ///
    /// # Errors
    /// [`KeystoreError::UnknownDevice`] if never provisioned,
    /// [`KeystoreError::Revoked`] if revoked.
    pub fn device_key(&self, device_id: &str) -> Result<DeviceKey, KeystoreError> {
        let handle = self
            .handle(device_id)
            .ok_or_else(|| KeystoreError::UnknownDevice(device_id.to_owned()))?;
        self.key_by_handle(handle)
    }

    /// [`Keystore::device_key`] for the device behind `handle`.
    ///
    /// # Errors
    /// [`KeystoreError::Revoked`] if revoked, and
    /// [`KeystoreError::UnknownDevice`] (with an empty id) for a handle
    /// this keystore never handed out.
    pub fn key_by_handle(&self, handle: KeyHandle) -> Result<DeviceKey, KeystoreError> {
        let rec = self
            .record(handle)
            .ok_or_else(|| KeystoreError::UnknownDevice(String::new()))?;
        if rec.revoked {
            return Err(KeystoreError::Revoked(rec.id.to_string()));
        }
        let key = rec
            .key
            .get_or_init(|| derive_key(&self.master, &rec.id, rec.epoch));
        Ok(DeviceKey {
            key: key.clone(),
            epoch: rec.epoch,
        })
    }

    fn record(&self, handle: KeyHandle) -> Option<&DeviceRecord> {
        self.records.get(handle.0 as usize)
    }

    /// The record of a provisioned device, by name.
    fn record_mut(&mut self, device_id: &str) -> Option<&mut DeviceRecord> {
        let handle = self.handle(device_id)?;
        self.records.get_mut(handle.0 as usize)
    }

    /// Derives the key a device itself would hold for a given epoch; used by
    /// the simulator to give the device side its copy.
    pub fn derive(&self, device_id: &str, epoch: KeyEpoch) -> SecretKey {
        derive_key(&self.master, device_id, epoch)
    }

    /// Rotates a device to the next epoch, returning the new epoch.
    ///
    /// # Errors
    /// Same conditions as [`Keystore::device_key`].
    pub fn rotate(&mut self, device_id: &str) -> Result<KeyEpoch, KeystoreError> {
        let rec = self
            .record_mut(device_id)
            .ok_or_else(|| KeystoreError::UnknownDevice(device_id.to_owned()))?;
        if rec.revoked {
            return Err(KeystoreError::Revoked(device_id.to_owned()));
        }
        rec.epoch = KeyEpoch(rec.epoch.0 + 1);
        rec.key = OnceLock::new();
        Ok(rec.epoch)
    }

    /// Revokes a device (e.g. after compromise detection). Idempotent.
    pub fn revoke(&mut self, device_id: &str) {
        if let Some(rec) = self.record_mut(device_id) {
            rec.revoked = true;
        }
    }

    /// Whether the device is currently revoked.
    pub fn is_revoked(&self, device_id: &str) -> bool {
        self.handle(device_id)
            .and_then(|h| self.record(h))
            .is_some_and(|r| r.revoked)
    }
}

fn derive_key(master: &[u8], device_id: &str, epoch: KeyEpoch) -> SecretKey {
    let label = format!("device:{device_id}:epoch:{}", epoch.0);
    SecretKey::derive(master, &label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aead::NonceSequence;

    #[test]
    fn provision_and_lookup() {
        let mut ks = Keystore::new(b"m");
        ks.provision("d1");
        let dk = ks.device_key("d1").unwrap();
        assert_eq!(dk.epoch, KeyEpoch(0));
        assert!(!ks.is_revoked("d1"));
    }

    #[test]
    fn unknown_device_errors() {
        let ks = Keystore::new(b"m");
        assert!(matches!(
            ks.device_key("ghost"),
            Err(KeystoreError::UnknownDevice(id)) if id == "ghost"
        ));
    }

    #[test]
    fn platform_and_device_keys_interoperate() {
        let mut ks = Keystore::new(b"m");
        ks.provision("probe");
        let platform_side = ks.device_key("probe").unwrap();
        let device_side = ks.derive("probe", KeyEpoch(0));
        let mut nonces = NonceSequence::new(1);
        let frame = device_side.seal(&nonces.next_nonce(), b"", b"vwc=0.2");
        assert_eq!(platform_side.key.open(b"", &frame).unwrap(), b"vwc=0.2");
    }

    #[test]
    fn rotation_invalidates_old_epoch() {
        let mut ks = Keystore::new(b"m");
        ks.provision("d");
        let old = ks.device_key("d").unwrap();
        assert_eq!(ks.rotate("d").unwrap(), KeyEpoch(1));
        let new = ks.device_key("d").unwrap();
        assert_eq!(new.epoch, KeyEpoch(1));
        // A frame sealed under the old key no longer opens under the new one.
        let frame = old.key.seal(&[0u8; 12], b"", b"stale");
        assert!(new.key.open(b"", &frame).is_err());
    }

    #[test]
    fn revocation_blocks_access() {
        let mut ks = Keystore::new(b"m");
        ks.provision("d");
        ks.revoke("d");
        assert!(ks.is_revoked("d"));
        assert!(matches!(
            ks.device_key("d"),
            Err(KeystoreError::Revoked(id)) if id == "d"
        ));
        assert_eq!(ks.rotate("d"), Err(KeystoreError::Revoked("d".into())));
        // Idempotent.
        ks.revoke("d");
        assert!(ks.is_revoked("d"));
    }

    #[test]
    fn reprovision_preserves_state() {
        let mut ks = Keystore::new(b"m");
        ks.provision("d");
        ks.rotate("d").unwrap();
        ks.provision("d"); // no-op
        assert_eq!(ks.device_key("d").unwrap().epoch, KeyEpoch(1));
    }

    #[test]
    fn different_devices_different_keys() {
        let mut ks = Keystore::new(b"m");
        ks.provision("a");
        ks.provision("b");
        let ka = ks.device_key("a").unwrap();
        let kb = ks.device_key("b").unwrap();
        let frame = ka.key.seal(&[0u8; 12], b"", b"m");
        assert!(kb.key.open(b"", &frame).is_err());
    }

    #[test]
    fn different_masters_different_keys() {
        let mut k1 = Keystore::new(b"m1");
        let mut k2 = Keystore::new(b"m2");
        k1.provision("d");
        k2.provision("d");
        let frame = k1.device_key("d").unwrap().key.seal(&[0u8; 12], b"", b"m");
        assert!(k2.device_key("d").unwrap().key.open(b"", &frame).is_err());
    }

    /// The cached key is the derived key at every point it can change.
    #[test]
    fn cached_key_tracks_derivation() {
        let same = |a: &SecretKey, b: &SecretKey| {
            let frame = a.seal(&[9u8; 12], b"aad", b"probe");
            b.open(b"aad", &frame).is_ok() && frame == b.seal(&[9u8; 12], b"aad", b"probe")
        };
        let mut ks = Keystore::new(b"m");
        ks.provision("d");
        let epoch0 = ks.device_key("d").unwrap();
        assert!(same(&epoch0.key, &ks.derive("d", KeyEpoch(0))));

        ks.rotate("d").unwrap();
        ks.rotate("d").unwrap();
        let epoch2 = ks.device_key("d").unwrap();
        assert_eq!(epoch2.epoch, KeyEpoch(2));
        assert!(same(&epoch2.key, &ks.derive("d", KeyEpoch(2))));
        assert!(!same(&epoch2.key, &ks.derive("d", KeyEpoch(1))));
        // A frame sealed before the rotations no longer opens.
        let stale = epoch0.key.seal(&[0u8; 12], b"", b"stale");
        assert!(epoch2.key.open(b"", &stale).is_err());

        // Re-provisioning is a no-op for the key as well as the epoch.
        ks.provision("d");
        let again = ks.device_key("d").unwrap();
        assert_eq!(again.epoch, KeyEpoch(2));
        assert!(same(&again.key, &ks.derive("d", KeyEpoch(2))));

        // A revoked device's key is never handed out, cached or not —
        // and one revoked before its first lookup is never even derived.
        ks.revoke("d");
        assert!(matches!(ks.device_key("d"), Err(KeystoreError::Revoked(_))));
        assert!(matches!(ks.rotate("d"), Err(KeystoreError::Revoked(_))));
        ks.provision("never-sent");
        ks.revoke("never-sent");
        assert!(ks.device_key("never-sent").is_err());
        assert!(ks.records[ks.index["never-sent"].0 as usize]
            .key
            .get()
            .is_none());
        // Provisioning and rotating derive nothing; the lookup does, once.
        ks.provision("lazy");
        assert!(ks.records[ks.index["lazy"].0 as usize].key.get().is_none());
        ks.device_key("lazy").unwrap();
        assert!(ks.records[ks.index["lazy"].0 as usize].key.get().is_some());
        ks.rotate("lazy").unwrap();
        assert!(ks.records[ks.index["lazy"].0 as usize].key.get().is_none());
    }

    /// A handle reads the same record the name does: rotation and
    /// revocation by name apply to the next lookup by handle.
    #[test]
    fn handles_read_the_record_names_write() {
        let mut ks = Keystore::new(b"m");
        let a = ks.provision("a");
        let b = ks.provision("b");
        assert_ne!(a, b);
        assert_eq!(ks.provision("a"), a, "re-provisioning keeps the handle");
        assert_eq!(ks.handle("b"), Some(b));
        assert_eq!(ks.handle("c"), None);
        let frame = |k: &DeviceKey| k.key.seal(&[5u8; 12], b"", b"m");
        assert_eq!(
            frame(&ks.key_by_handle(a).unwrap()),
            frame(&ks.device_key("a").unwrap())
        );
        ks.rotate("a").unwrap();
        let rotated = ks.key_by_handle(a).unwrap();
        assert_eq!(rotated.epoch, KeyEpoch(1));
        assert!(ks
            .derive("a", KeyEpoch(1))
            .open(b"", &frame(&rotated))
            .is_ok());
        ks.revoke("a");
        assert_eq!(
            ks.key_by_handle(a).unwrap_err(),
            KeystoreError::Revoked("a".into())
        );
        assert!(ks.key_by_handle(b).is_ok());
        assert!(matches!(
            ks.key_by_handle(KeyHandle(7)),
            Err(KeystoreError::UnknownDevice(_))
        ));
    }

    #[test]
    fn revoke_unknown_is_noop() {
        let mut ks = Keystore::new(b"m");
        ks.revoke("ghost");
        assert!(!ks.is_revoked("ghost"));
    }
}
