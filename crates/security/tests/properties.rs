//! Seeded property loops for the security layer: each test draws its
//! inputs from a fixed [`SimRng`] stream, so a failure reproduces exactly.

use swamp_security::anonymize::{k_anonymize, Pseudonymizer, YieldRecord};
use swamp_security::identity::{IdentityProvider, Token};
use swamp_security::ledger::{Ledger, LifecycleEvent, LifecycleKind};
use swamp_sim::{SimDuration, SimRng, SimTime};

/// `1..=max_len` characters of `alphabet`.
fn word(rng: &mut SimRng, alphabet: &[u8], max_len: u64) -> String {
    (0..1 + rng.below(max_len))
        .map(|_| char::from(*rng.pick(alphabet).expect("non-empty alphabet")))
        .collect()
}

fn lifecycle_kind(rng: &mut SimRng) -> LifecycleKind {
    match rng.below(7) {
        0 => LifecycleKind::Manufactured {
            hw_rev: word(rng, b"abcxyz0189", 6),
        },
        1 => LifecycleKind::Provisioned {
            owner: word(rng, b"ownerxyz:", 12),
        },
        2 => LifecycleKind::Transferred {
            new_owner: word(rng, b"ownerxyz:", 12),
        },
        3 => LifecycleKind::FirmwareUpdated {
            version: word(rng, b"0123456789.", 8),
        },
        4 => LifecycleKind::KeyRotated {
            epoch: rng.below(100) as u32,
        },
        5 => LifecycleKind::Revoked {
            reason: word(rng, b"lost stolen", 16),
        },
        _ => LifecycleKind::Decommissioned,
    }
}

/// Any ledger built through the API verifies; tampering with a recorded
/// event breaks verification.
#[test]
fn ledger_verifies_and_tamper_is_detected() {
    let mut rng = SimRng::seed_from(0x5EC0_0001);
    for _ in 0..48 {
        let mut ledger = Ledger::new();
        ledger.register_authority("auth", b"key");
        for i in 0..1 + rng.below(5) {
            let at = SimTime::from_secs(i);
            let events = (0..1 + rng.below(4))
                .map(|_| LifecycleEvent {
                    device_id: word(&mut rng, b"abcdefgh0123456789-", 10),
                    kind: lifecycle_kind(&mut rng),
                    at,
                })
                .collect();
            ledger.append("auth", at, events).unwrap();
        }
        assert!(ledger.verify().is_ok());

        // No generated id is this long, so the rewrite is a real change.
        ledger.tamper_event_for_tests(1, "mallory-device-xyz");
        assert!(ledger.verify().is_err());
    }
}

/// k-anonymity always delivers min class size ≥ k when enough records
/// exist, and every original value stays inside its published interval.
#[test]
fn k_anonymity_guarantee() {
    let mut rng = SimRng::seed_from(0x5EC0_0002);
    for _ in 0..48 {
        let k = 1 + rng.below(7) as usize;
        let n = k.max(5) + rng.below(55) as usize;
        let records: Vec<YieldRecord> = (0..n)
            .map(|i| YieldRecord {
                farm_id: format!("farm-{i}"),
                area_ha: rng.uniform_range(1.0, 500.0),
                yield_t_ha: rng.uniform_range(0.5, 12.0),
            })
            .collect();
        let report = k_anonymize(&records, k, &Pseudonymizer::new(b"k")).unwrap();
        assert!(report.min_class_size >= k);
        assert!(report.reidentification_risk <= 1.0 / k as f64 + 1e-12);
        assert!((0.0..=1.0).contains(&report.information_loss));
        for (orig, anon) in records.iter().zip(&report.records) {
            assert!(anon.area_range.0 <= orig.area_ha + 1e-9);
            assert!(orig.area_ha <= anon.area_range.1 + 1e-9);
            assert!(anon.yield_range.0 <= orig.yield_t_ha + 1e-9);
            assert!(orig.yield_t_ha <= anon.yield_range.1 + 1e-9);
            assert!(!anon.pseudonym.contains("farm-"));
        }
    }
}

/// Issued tokens always validate until expiry and never after; forged
/// token strings never validate.
#[test]
fn token_lifecycle_properties() {
    let mut rng = SimRng::seed_from(0x5EC0_0003);
    for _ in 0..48 {
        let ttl_secs = 60 + rng.below(99_940);
        let check_offset = rng.below(200_000);
        let mut idm = IdentityProvider::new(b"k", SimDuration::from_secs(ttl_secs));
        idm.register_client("c", "s", &[]);
        let token = idm
            .client_credentials_grant(SimTime::ZERO, "c", "s", &[])
            .unwrap();
        let result = idm.validate(SimTime::from_secs(check_offset), &token);
        assert_eq!(result.is_ok(), check_offset < ttl_secs);

        let forged = Token::from_raw_for_tests(&word(&mut rng, b"0123456789abcdef.", 64));
        assert!(idm.validate(SimTime::ZERO, &forged).is_err());
    }
}
