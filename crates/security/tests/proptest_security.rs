//! Property-based tests for the security layer.

// Gated: proptest is not resolvable in the offline build environment.
// See the `proptest-tests` feature note in this crate's Cargo.toml.
#![cfg(feature = "proptest-tests")]

use proptest::prelude::*;
use swamp_security::anonymize::{k_anonymize, Pseudonymizer, YieldRecord};
use swamp_security::identity::IdentityProvider;
use swamp_security::ledger::{Ledger, LifecycleEvent, LifecycleKind};
use swamp_sim::{SimDuration, SimTime};

fn arb_lifecycle_kind() -> impl Strategy<Value = LifecycleKind> {
    prop_oneof![
        "[a-z0-9]{1,6}".prop_map(|hw_rev| LifecycleKind::Manufactured { hw_rev }),
        "[a-z:]{1,12}".prop_map(|owner| LifecycleKind::Provisioned { owner }),
        "[a-z:]{1,12}".prop_map(|new_owner| LifecycleKind::Transferred { new_owner }),
        "[0-9.]{1,8}".prop_map(|version| LifecycleKind::FirmwareUpdated { version }),
        (0u32..100).prop_map(|epoch| LifecycleKind::KeyRotated { epoch }),
        "[a-z ]{1,16}".prop_map(|reason| LifecycleKind::Revoked { reason }),
        Just(LifecycleKind::Decommissioned),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any ledger built through the API verifies; tampering with any event
    /// breaks verification.
    #[test]
    fn ledger_verifies_and_tamper_is_detected(
        blocks in prop::collection::vec(
            prop::collection::vec(
                ("[a-z0-9-]{1,10}", arb_lifecycle_kind()),
                1..5,
            ),
            1..6,
        ),
    ) {
        let mut ledger = Ledger::new();
        ledger.register_authority("auth", b"key");
        for (i, block) in blocks.iter().enumerate() {
            let events = block
                .iter()
                .map(|(device, kind)| LifecycleEvent {
                    device_id: device.clone(),
                    kind: kind.clone(),
                    at: SimTime::from_secs(i as u64),
                })
                .collect();
            ledger.append("auth", SimTime::from_secs(i as u64), events).unwrap();
        }
        prop_assert!(ledger.verify().is_ok());

        // Tamper with the first block's first event.
        let mut tampered = Ledger::new();
        tampered.register_authority("auth", b"key");
        for (i, block) in blocks.iter().enumerate() {
            let events = block
                .iter()
                .map(|(device, kind)| LifecycleEvent {
                    device_id: device.clone(),
                    kind: kind.clone(),
                    at: SimTime::from_secs(i as u64),
                })
                .collect();
            tampered.append("auth", SimTime::from_secs(i as u64), events).unwrap();
        }
        tampered.tamper_event_for_tests(1, "mallory-device-xyz");
        // Either the device differs from every original (tamper real) and
        // verification fails, or it collided with the original name.
        if blocks[0][0].0 != "mallory-device-xyz" {
            prop_assert!(tampered.verify().is_err());
        }
    }

    /// k-anonymity always delivers min class size ≥ k when enough records
    /// exist, and every original value stays inside its published interval.
    #[test]
    fn k_anonymity_guarantee(
        values in prop::collection::vec((1.0f64..500.0, 0.5f64..12.0), 5..60),
        k in 1usize..8,
    ) {
        prop_assume!(values.len() >= k);
        let records: Vec<YieldRecord> = values
            .iter()
            .enumerate()
            .map(|(i, (area, y))| YieldRecord {
                farm_id: format!("farm-{i}"),
                area_ha: *area,
                yield_t_ha: *y,
            })
            .collect();
        let report = k_anonymize(&records, k, &Pseudonymizer::new(b"k")).unwrap();
        prop_assert!(report.min_class_size >= k);
        prop_assert!(report.reidentification_risk <= 1.0 / k as f64 + 1e-12);
        prop_assert!((0.0..=1.0).contains(&report.information_loss));
        for (orig, anon) in records.iter().zip(&report.records) {
            prop_assert!(anon.area_range.0 <= orig.area_ha + 1e-9);
            prop_assert!(orig.area_ha <= anon.area_range.1 + 1e-9);
            prop_assert!(anon.yield_range.0 <= orig.yield_t_ha + 1e-9);
            prop_assert!(orig.yield_t_ha <= anon.yield_range.1 + 1e-9);
            prop_assert!(!anon.pseudonym.contains("farm-"));
        }
    }

    /// Issued tokens always validate until expiry and never after; forged
    /// token strings never validate.
    #[test]
    fn token_lifecycle_properties(
        ttl_secs in 60u64..100_000,
        check_offset in 0u64..200_000,
        forged in "[a-f0-9.]{8,64}",
    ) {
        let mut idm = IdentityProvider::new(b"k", SimDuration::from_secs(ttl_secs));
        idm.register_client("c", "s", &[]);
        let token = idm
            .client_credentials_grant(SimTime::ZERO, "c", "s", &[])
            .unwrap();
        let at = SimTime::from_secs(check_offset);
        let result = idm.validate(at, &token);
        if check_offset < ttl_secs {
            prop_assert!(result.is_ok());
        } else {
            prop_assert!(result.is_err());
        }
        let forged_token =
            swamp_security::identity::Token::from_raw_for_tests(&forged);
        prop_assert!(idm.validate(SimTime::ZERO, &forged_token).is_err());
    }
}
