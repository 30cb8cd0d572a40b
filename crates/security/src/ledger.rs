//! Blockchain device-lifecycle ledger and smart-contract authorization.
//!
//! The paper: "A disruptive technology in security is blockchain … One
//! possible application is in the supply chain and lifecycle of an IoT
//! device … it is possible to track all the attributes, relationships and
//! events related to a device. The use of smart contracts is also a
//! promising mechanism … for authentication, authorization, and privacy of
//! IoT devices."
//!
//! This is a permissioned (proof-of-authority) hash chain: consortium
//! authorities sign blocks of [`LifecycleEvent`]s with HMAC; anyone holding
//! the chain can verify integrity and replay a device's full history. A
//! [`DeviceContract`] evaluates authorization predicates (provisioned?
//! owner matches? not revoked? firmware fresh?) against the replayed state.

use std::collections::BTreeMap;
use std::fmt;

use swamp_codec::json::Json;
use swamp_crypto::hmac::{constant_time_eq, hmac_sha256};
use swamp_crypto::sha256::{to_hex, Sha256};
use swamp_sim::SimTime;

/// A device lifecycle event kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LifecycleKind {
    /// Manufactured with a given hardware revision.
    Manufactured {
        /// Hardware revision string.
        hw_rev: String,
    },
    /// Provisioned into a pilot under an owner.
    Provisioned {
        /// Owning principal (e.g. `"owner:matopiba"`).
        owner: String,
    },
    /// Ownership transferred.
    Transferred {
        /// New owning principal.
        new_owner: String,
    },
    /// Firmware updated to a version.
    FirmwareUpdated {
        /// New firmware version string.
        version: String,
    },
    /// Link key rotated to an epoch.
    KeyRotated {
        /// New key epoch.
        epoch: u32,
    },
    /// Revoked (compromise/recall).
    Revoked {
        /// Human-readable reason.
        reason: String,
    },
    /// End of life.
    Decommissioned,
}

/// One ledger event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LifecycleEvent {
    /// Device the event concerns.
    pub device_id: String,
    /// What happened.
    pub kind: LifecycleKind,
    /// Virtual time of the event.
    pub at: SimTime,
}

impl LifecycleEvent {
    fn to_json(&self) -> Json {
        let (kind, detail) = match &self.kind {
            LifecycleKind::Manufactured { hw_rev } => ("manufactured", hw_rev.clone()),
            LifecycleKind::Provisioned { owner } => ("provisioned", owner.clone()),
            LifecycleKind::Transferred { new_owner } => ("transferred", new_owner.clone()),
            LifecycleKind::FirmwareUpdated { version } => ("firmware", version.clone()),
            LifecycleKind::KeyRotated { epoch } => ("key_rotated", epoch.to_string()),
            LifecycleKind::Revoked { reason } => ("revoked", reason.clone()),
            LifecycleKind::Decommissioned => ("decommissioned", String::new()),
        };
        Json::object([
            ("device", Json::from(self.device_id.as_str())),
            ("kind", Json::from(kind)),
            ("detail", Json::from(detail)),
            ("at_ms", Json::from(self.at.as_millis() as f64)),
        ])
    }
}

/// A signed block of events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Height in the chain (genesis = 0).
    pub index: u64,
    /// Hex hash of the previous block.
    pub prev_hash: String,
    /// Events committed by this block.
    pub events: Vec<LifecycleEvent>,
    /// Sealing authority id.
    pub authority: String,
    /// Virtual time the block was sealed.
    pub sealed_at: SimTime,
    /// Hex hash of this block's contents.
    pub hash: String,
    /// PoA signature (HMAC by the authority's key) over the hash.
    pub signature: Vec<u8>,
}

fn block_hash(
    index: u64,
    prev_hash: &str,
    events: &[LifecycleEvent],
    authority: &str,
    sealed_at: SimTime,
) -> String {
    let events_json = Json::Array(events.iter().map(LifecycleEvent::to_json).collect());
    let body = Json::object([
        ("index", Json::from(index as f64)),
        ("prev", Json::from(prev_hash)),
        ("events", events_json),
        ("authority", Json::from(authority)),
        ("sealed_ms", Json::from(sealed_at.as_millis() as f64)),
    ]);
    to_hex(&Sha256::digest(body.to_compact_string().as_bytes()))
}

/// Errors from ledger operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LedgerError {
    /// The sealing authority is not registered.
    UnknownAuthority(String),
    /// Chain verification failed at the given height.
    BrokenChain {
        /// Height of the offending block.
        height: u64,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::UnknownAuthority(a) => write!(f, "unknown authority {a:?}"),
            LedgerError::BrokenChain { height, reason } => {
                write!(f, "chain broken at block {height}: {reason}")
            }
        }
    }
}
impl std::error::Error for LedgerError {}

/// Current state of a device as replayed from the ledger.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeviceState {
    /// Present owner, if provisioned.
    pub owner: Option<String>,
    /// Latest firmware version recorded.
    pub firmware: Option<String>,
    /// Latest key epoch recorded.
    pub key_epoch: Option<u32>,
    /// Whether the device was revoked.
    pub revoked: bool,
    /// Whether the device was decommissioned.
    pub decommissioned: bool,
    /// Total events recorded for the device.
    pub event_count: usize,
}

/// The proof-of-authority hash-chained ledger.
///
/// # Example
/// ```
/// use swamp_security::ledger::*;
/// use swamp_sim::SimTime;
///
/// let mut ledger = Ledger::new();
/// ledger.register_authority("consortium", b"authority-key");
/// ledger.append(
///     "consortium",
///     SimTime::ZERO,
///     vec![LifecycleEvent {
///         device_id: "probe-1".into(),
///         kind: LifecycleKind::Provisioned { owner: "owner:cbec".into() },
///         at: SimTime::ZERO,
///     }],
/// ).unwrap();
/// assert!(ledger.verify().is_ok());
/// assert_eq!(ledger.device_state("probe-1").owner.as_deref(), Some("owner:cbec"));
/// ```
pub struct Ledger {
    blocks: Vec<Block>,
    authorities: BTreeMap<String, Vec<u8>>,
}

impl fmt::Debug for Ledger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ledger")
            .field("height", &self.blocks.len())
            .field("authorities", &self.authorities.len())
            .finish()
    }
}

impl Default for Ledger {
    fn default() -> Self {
        Self::new()
    }
}

impl Ledger {
    /// Creates a ledger with only the genesis block.
    pub fn new() -> Self {
        let genesis = Block {
            index: 0,
            prev_hash: String::new(),
            events: Vec::new(),
            authority: "genesis".to_owned(),
            sealed_at: SimTime::ZERO,
            hash: block_hash(0, "", &[], "genesis", SimTime::ZERO),
            signature: Vec::new(),
        };
        Ledger {
            blocks: vec![genesis],
            authorities: BTreeMap::new(),
        }
    }

    /// Registers a sealing authority and its signing key.
    pub fn register_authority(&mut self, id: &str, key: &[u8]) {
        self.authorities.insert(id.to_owned(), key.to_vec());
    }

    /// Chain height (blocks including genesis).
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// All blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Seals a new block of events.
    ///
    /// # Errors
    /// [`LedgerError::UnknownAuthority`] if the authority is unregistered.
    ///
    /// # Panics
    /// Never in practice: the genesis block is created in [`Ledger::default`]
    /// and blocks are never removed, so the chain tail is always present.
    #[expect(clippy::expect_used, reason = "documented under # Panics")]
    pub fn append(
        &mut self,
        authority: &str,
        now: SimTime,
        events: Vec<LifecycleEvent>,
    ) -> Result<&Block, LedgerError> {
        let key = self
            .authorities
            .get(authority)
            .ok_or_else(|| LedgerError::UnknownAuthority(authority.to_owned()))?;
        let prev = self.blocks.last().expect("genesis always present");
        let index = prev.index + 1;
        let hash = block_hash(index, &prev.hash, &events, authority, now);
        let signature = hmac_sha256(key, hash.as_bytes()).to_vec();
        self.blocks.push(Block {
            index,
            prev_hash: prev.hash.clone(),
            events,
            authority: authority.to_owned(),
            sealed_at: now,
            hash,
            signature,
        });
        Ok(self.blocks.last().expect("just pushed"))
    }

    /// Verifies the whole chain: hash links, content hashes and signatures.
    ///
    /// # Errors
    /// [`LedgerError::BrokenChain`] at the first inconsistent block.
    pub fn verify(&self) -> Result<(), LedgerError> {
        for (i, block) in self.blocks.iter().enumerate() {
            let expected = block_hash(
                block.index,
                &block.prev_hash,
                &block.events,
                &block.authority,
                block.sealed_at,
            );
            if expected != block.hash {
                return Err(LedgerError::BrokenChain {
                    height: block.index,
                    reason: "content hash mismatch".into(),
                });
            }
            if i > 0 {
                let prev = &self.blocks[i - 1];
                if block.prev_hash != prev.hash {
                    return Err(LedgerError::BrokenChain {
                        height: block.index,
                        reason: "previous-hash link broken".into(),
                    });
                }
                let key = self.authorities.get(&block.authority).ok_or_else(|| {
                    LedgerError::BrokenChain {
                        height: block.index,
                        reason: format!("sealed by unknown authority {:?}", block.authority),
                    }
                })?;
                let expected_sig = hmac_sha256(key, block.hash.as_bytes());
                if !constant_time_eq(&expected_sig, &block.signature) {
                    return Err(LedgerError::BrokenChain {
                        height: block.index,
                        reason: "invalid authority signature".into(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Replays the full event history of one device.
    pub fn device_history(&self, device_id: &str) -> Vec<&LifecycleEvent> {
        self.blocks
            .iter()
            .flat_map(|b| b.events.iter())
            .filter(|e| e.device_id == device_id)
            .collect()
    }

    /// Replays the current state of a device from its history.
    pub fn device_state(&self, device_id: &str) -> DeviceState {
        let mut state = DeviceState::default();
        for event in self.device_history(device_id) {
            state.event_count += 1;
            match &event.kind {
                LifecycleKind::Manufactured { .. } => {}
                LifecycleKind::Provisioned { owner } => state.owner = Some(owner.clone()),
                LifecycleKind::Transferred { new_owner } => state.owner = Some(new_owner.clone()),
                LifecycleKind::FirmwareUpdated { version } => {
                    state.firmware = Some(version.clone())
                }
                LifecycleKind::KeyRotated { epoch } => state.key_epoch = Some(*epoch),
                LifecycleKind::Revoked { .. } => state.revoked = true,
                LifecycleKind::Decommissioned => state.decommissioned = true,
            }
        }
        state
    }

    /// Test hook: tampers with a recorded event (simulating an attacker
    /// rewriting history) so verification failure paths can be exercised.
    #[doc(hidden)]
    pub fn tamper_event_for_tests(&mut self, height: usize, new_device: &str) {
        if let Some(e) = self.blocks[height].events.first_mut() {
            e.device_id = new_device.to_owned();
        }
    }
}

/// A smart contract gating an operation on ledger-recorded device state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceContract {
    /// Owner the device must currently belong to (None = any owner).
    pub required_owner: Option<String>,
    /// Minimum key epoch (stale keys rejected).
    pub min_key_epoch: Option<u32>,
    /// Require a recorded firmware version in this allowlist (empty = any).
    pub allowed_firmware: Vec<String>,
}

/// Contract evaluation outcome with the failed clause for audit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContractOutcome {
    /// All clauses satisfied.
    Authorized,
    /// A clause failed.
    Rejected(String),
}

impl ContractOutcome {
    /// Whether the operation may proceed.
    pub fn is_authorized(&self) -> bool {
        matches!(self, ContractOutcome::Authorized)
    }
}

impl DeviceContract {
    /// A contract requiring only a live provisioned device.
    pub fn provisioned_only() -> Self {
        DeviceContract {
            required_owner: None,
            min_key_epoch: None,
            allowed_firmware: Vec::new(),
        }
    }

    /// Evaluates the contract against a device's ledger state.
    pub fn evaluate(&self, state: &DeviceState) -> ContractOutcome {
        if state.owner.is_none() {
            return ContractOutcome::Rejected("device never provisioned".into());
        }
        if state.revoked {
            return ContractOutcome::Rejected("device revoked".into());
        }
        if state.decommissioned {
            return ContractOutcome::Rejected("device decommissioned".into());
        }
        if let Some(required) = &self.required_owner {
            if state.owner.as_deref() != Some(required.as_str()) {
                return ContractOutcome::Rejected(format!(
                    "owner {:?} does not match required {:?}",
                    state.owner, required
                ));
            }
        }
        if let Some(min) = self.min_key_epoch {
            if state.key_epoch.unwrap_or(0) < min {
                return ContractOutcome::Rejected(format!(
                    "key epoch {:?} below required {min}",
                    state.key_epoch
                ));
            }
        }
        if !self.allowed_firmware.is_empty() {
            match &state.firmware {
                Some(fw) if self.allowed_firmware.contains(fw) => {}
                other => {
                    return ContractOutcome::Rejected(format!(
                        "firmware {other:?} not in allowlist"
                    ))
                }
            }
        }
        ContractOutcome::Authorized
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(device: &str, kind: LifecycleKind, secs: u64) -> LifecycleEvent {
        LifecycleEvent {
            device_id: device.to_owned(),
            kind,
            at: SimTime::from_secs(secs),
        }
    }

    fn ledger_with_history() -> Ledger {
        let mut l = Ledger::new();
        l.register_authority("cbec", b"cbec-key");
        l.append(
            "cbec",
            SimTime::from_secs(1),
            vec![
                event(
                    "probe-1",
                    LifecycleKind::Manufactured {
                        hw_rev: "A2".into(),
                    },
                    0,
                ),
                event(
                    "probe-1",
                    LifecycleKind::Provisioned {
                        owner: "owner:cbec".into(),
                    },
                    1,
                ),
            ],
        )
        .unwrap();
        l.append(
            "cbec",
            SimTime::from_secs(2),
            vec![
                event(
                    "probe-1",
                    LifecycleKind::FirmwareUpdated {
                        version: "1.2.0".into(),
                    },
                    2,
                ),
                event("probe-1", LifecycleKind::KeyRotated { epoch: 3 }, 2),
            ],
        )
        .unwrap();
        l
    }

    #[test]
    fn chain_verifies() {
        let l = ledger_with_history();
        assert_eq!(l.height(), 3);
        assert!(l.verify().is_ok());
    }

    #[test]
    fn state_replay() {
        let l = ledger_with_history();
        let s = l.device_state("probe-1");
        assert_eq!(s.owner.as_deref(), Some("owner:cbec"));
        assert_eq!(s.firmware.as_deref(), Some("1.2.0"));
        assert_eq!(s.key_epoch, Some(3));
        assert!(!s.revoked);
        assert_eq!(s.event_count, 4);
        assert_eq!(l.device_history("probe-1").len(), 4);
        assert_eq!(l.device_history("ghost").len(), 0);
    }

    #[test]
    fn tampering_detected() {
        let mut l = ledger_with_history();
        l.tamper_event_for_tests(1, "attacker-device");
        let err = l.verify().unwrap_err();
        assert!(matches!(err, LedgerError::BrokenChain { height: 1, .. }));
    }

    #[test]
    fn unknown_authority_rejected() {
        let mut l = Ledger::new();
        assert_eq!(
            l.append("mallory", SimTime::ZERO, vec![]).unwrap_err(),
            LedgerError::UnknownAuthority("mallory".into())
        );
    }

    #[test]
    fn forged_signature_detected() {
        let mut l = ledger_with_history();
        // Attacker rewrites a block and recomputes the hash chain but cannot
        // produce valid signatures without the authority key.
        let events = vec![event(
            "probe-1",
            LifecycleKind::Transferred {
                new_owner: "owner:mallory".into(),
            },
            5,
        )];
        let prev_hash = l.blocks[2].hash.clone();
        let hash = block_hash(3, &prev_hash, &events, "cbec", SimTime::from_secs(5));
        l.blocks.push(Block {
            index: 3,
            prev_hash,
            events,
            authority: "cbec".into(),
            sealed_at: SimTime::from_secs(5),
            hash,
            signature: vec![0u8; 32], // forged
        });
        let err = l.verify().unwrap_err();
        assert!(matches!(err, LedgerError::BrokenChain { height: 3, .. }));
    }

    #[test]
    fn transfer_and_revoke_flow() {
        let mut l = ledger_with_history();
        l.append(
            "cbec",
            SimTime::from_secs(10),
            vec![event(
                "probe-1",
                LifecycleKind::Transferred {
                    new_owner: "owner:guaspari".into(),
                },
                10,
            )],
        )
        .unwrap();
        assert_eq!(
            l.device_state("probe-1").owner.as_deref(),
            Some("owner:guaspari")
        );
        l.append(
            "cbec",
            SimTime::from_secs(11),
            vec![event(
                "probe-1",
                LifecycleKind::Revoked {
                    reason: "compromised".into(),
                },
                11,
            )],
        )
        .unwrap();
        assert!(l.device_state("probe-1").revoked);
        assert!(l.verify().is_ok());
    }

    #[test]
    fn contract_authorizes_healthy_device() {
        let l = ledger_with_history();
        let contract = DeviceContract {
            required_owner: Some("owner:cbec".into()),
            min_key_epoch: Some(2),
            allowed_firmware: vec!["1.2.0".into()],
        };
        assert!(contract
            .evaluate(&l.device_state("probe-1"))
            .is_authorized());
    }

    #[test]
    fn contract_rejects_each_clause() {
        let l = ledger_with_history();
        let state = l.device_state("probe-1");

        let wrong_owner = DeviceContract {
            required_owner: Some("owner:matopiba".into()),
            ..DeviceContract::provisioned_only()
        };
        assert!(!wrong_owner.evaluate(&state).is_authorized());

        let stale_key = DeviceContract {
            min_key_epoch: Some(10),
            ..DeviceContract::provisioned_only()
        };
        assert!(!stale_key.evaluate(&state).is_authorized());

        let bad_fw = DeviceContract {
            allowed_firmware: vec!["9.9.9".into()],
            ..DeviceContract::provisioned_only()
        };
        assert!(!bad_fw.evaluate(&state).is_authorized());

        // Unprovisioned device.
        assert_eq!(
            DeviceContract::provisioned_only().evaluate(&l.device_state("ghost")),
            ContractOutcome::Rejected("device never provisioned".into())
        );
    }

    #[test]
    fn contract_rejects_revoked_and_decommissioned() {
        let mut l = ledger_with_history();
        l.append(
            "cbec",
            SimTime::from_secs(20),
            vec![event(
                "probe-1",
                LifecycleKind::Revoked {
                    reason: "stolen".into(),
                },
                20,
            )],
        )
        .unwrap();
        let c = DeviceContract::provisioned_only();
        assert!(!c.evaluate(&l.device_state("probe-1")).is_authorized());

        l.append(
            "cbec",
            SimTime::from_secs(21),
            vec![event(
                "probe-2",
                LifecycleKind::Provisioned { owner: "o".into() },
                21,
            )],
        )
        .unwrap();
        l.append(
            "cbec",
            SimTime::from_secs(22),
            vec![event("probe-2", LifecycleKind::Decommissioned, 22)],
        )
        .unwrap();
        assert!(!c.evaluate(&l.device_state("probe-2")).is_authorized());
    }

    #[test]
    fn multiple_authorities() {
        let mut l = Ledger::new();
        l.register_authority("a1", b"k1");
        l.register_authority("a2", b"k2");
        l.append("a1", SimTime::from_secs(1), vec![]).unwrap();
        l.append("a2", SimTime::from_secs(2), vec![]).unwrap();
        assert!(l.verify().is_ok());
    }
}
