//! Seeded property loops for the security layer: each test draws its
//! inputs from a fixed [`SimRng`] stream, so a failure reproduces exactly.

use swamp_security::identity::{IdentityProvider, Token};
use swamp_sim::{SimDuration, SimRng, SimTime};

/// `1..=max_len` characters of `alphabet`.
fn word(rng: &mut SimRng, alphabet: &[u8], max_len: u64) -> String {
    (0..1 + rng.below(max_len))
        .map(|_| char::from(*rng.pick(alphabet).expect("non-empty alphabet")))
        .collect()
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
