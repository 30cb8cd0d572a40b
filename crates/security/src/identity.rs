//! OAuth 2.0-style identity management.
//!
//! The paper: "The access to the platform must be allowed only for
//! identified and authorized users, using FIWARE security generic enablers
//! and the OAuth 2.0 protocol." This module is the Keyrock-analogue:
//! registered clients and users, client-credentials and password grants,
//! HMAC-signed bearer tokens with scopes and expiry, and single-token
//! revocation. Token verification is constant-time. There are no refresh
//! tokens (optional in RFC 6749 §1.5): a client whose token expires asks
//! for a new grant.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use swamp_crypto::hmac::{constant_time_eq, hmac_sha256};
use swamp_crypto::sha256::{to_hex, Sha256};
use swamp_sim::{SimDuration, SimTime};

/// A scope string (e.g. `"context:read"`, `"actuator:command"`).
pub type Scope = String;

/// An issued bearer token (opaque to clients).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(String);

impl Token {
    /// The wire form of the token.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Constructs a token from a raw string — only for tests exercising the
    /// forged/invalid-token paths.
    #[doc(hidden)]
    pub fn from_raw_for_tests(raw: &str) -> Token {
        Token(raw.to_owned())
    }
}

impl fmt::Debug for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print full tokens into logs.
        write!(f, "Token({}…)", &self.0[..8.min(self.0.len())])
    }
}

/// Errors from the identity provider.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuthError {
    /// Unknown client id or wrong secret.
    InvalidClient,
    /// Unknown user or wrong password.
    InvalidCredentials,
    /// The client asked for a scope it is not registered for.
    ScopeNotAllowed(Scope),
    /// Token malformed, forged, or of unknown format.
    InvalidToken,
    /// Token expired at the contained time.
    Expired,
    /// Token was revoked.
    Revoked,
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::InvalidClient => f.write_str("invalid client credentials"),
            AuthError::InvalidCredentials => f.write_str("invalid user credentials"),
            AuthError::ScopeNotAllowed(s) => write!(f, "scope {s:?} not allowed"),
            AuthError::InvalidToken => f.write_str("invalid token"),
            AuthError::Expired => f.write_str("token expired"),
            AuthError::Revoked => f.write_str("token revoked"),
        }
    }
}
impl std::error::Error for AuthError {}

/// Who a validated token belongs to and what it may do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TokenInfo {
    /// Subject: `user:<name>` or `client:<id>`.
    pub subject: String,
    /// Granted scopes.
    pub scopes: BTreeSet<Scope>,
    /// Expiry instant.
    pub expires_at: SimTime,
}

impl TokenInfo {
    /// Whether the token carries a scope.
    pub fn has_scope(&self, scope: &str) -> bool {
        self.scopes.contains(scope)
    }
}

#[derive(Clone, Debug)]
struct ClientRecord {
    secret_hash: [u8; 32],
    allowed_scopes: BTreeSet<Scope>,
}

#[derive(Clone, Debug)]
struct UserRecord {
    password_hash: [u8; 32],
    roles: BTreeSet<String>,
}

#[derive(Clone, Debug)]
struct IssuedToken {
    info: TokenInfo,
    revoked: bool,
}

/// The identity provider (FIWARE Keyrock analogue).
///
/// # Example
/// ```
/// use swamp_security::identity::IdentityProvider;
/// use swamp_sim::{SimDuration, SimTime};
///
/// let mut idm = IdentityProvider::new(b"idm-signing-key", SimDuration::from_hours(1));
/// idm.register_client("scheduler", "s3cret", &["context:read", "actuator:command"]);
/// let token = idm
///     .client_credentials_grant(SimTime::ZERO, "scheduler", "s3cret",
///                               &["actuator:command"])
///     .unwrap();
/// let info = idm.validate(SimTime::ZERO, &token).unwrap();
/// assert!(info.has_scope("actuator:command"));
/// ```
pub struct IdentityProvider {
    signing_key: Vec<u8>,
    token_ttl: SimDuration,
    clients: BTreeMap<String, ClientRecord>,
    users: BTreeMap<String, UserRecord>,
    issued: BTreeMap<String, IssuedToken>,
    counter: u64,
}

impl fmt::Debug for IdentityProvider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IdentityProvider")
            .field("clients", &self.clients.len())
            .field("users", &self.users.len())
            .field("issued", &self.issued.len())
            .finish()
    }
}

fn hash_secret(secret: &str) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"swamp-idm-secret-v1:");
    h.update(secret.as_bytes());
    h.finalize()
}

impl IdentityProvider {
    /// Creates a provider with a token signing key and a token lifetime.
    pub fn new(signing_key: &[u8], token_ttl: SimDuration) -> Self {
        IdentityProvider {
            signing_key: signing_key.to_vec(),
            token_ttl,
            clients: BTreeMap::new(),
            users: BTreeMap::new(),
            issued: BTreeMap::new(),
            counter: 0,
        }
    }

    /// Registers an OAuth client with its allowed scopes.
    pub fn register_client(&mut self, id: &str, secret: &str, scopes: &[&str]) {
        self.clients.insert(
            id.to_owned(),
            ClientRecord {
                secret_hash: hash_secret(secret),
                allowed_scopes: scopes.iter().map(|s| (*s).to_owned()).collect(),
            },
        );
    }

    /// Registers a user with roles (roles become `role:<r>` scopes).
    pub fn register_user(&mut self, username: &str, password: &str, roles: &[&str]) {
        self.users.insert(
            username.to_owned(),
            UserRecord {
                password_hash: hash_secret(password),
                roles: roles.iter().map(|s| (*s).to_owned()).collect(),
            },
        );
    }

    fn mint(&mut self, subject: String, scopes: BTreeSet<Scope>, now: SimTime) -> Token {
        self.counter += 1;
        let body = format!("{}|{}|{}", subject, self.counter, now.as_millis());
        let tag = hmac_sha256(&self.signing_key, body.as_bytes());
        let token_str = format!(
            "{}.{}",
            to_hex(&Sha256::digest(body.as_bytes())),
            to_hex(&tag[..16])
        );
        self.issued.insert(
            token_str.clone(),
            IssuedToken {
                info: TokenInfo {
                    subject,
                    scopes,
                    expires_at: now + self.token_ttl,
                },
                revoked: false,
            },
        );
        Token(token_str)
    }

    /// OAuth client-credentials grant: machine-to-machine tokens.
    ///
    /// # Errors
    /// [`AuthError::InvalidClient`] on bad credentials,
    /// [`AuthError::ScopeNotAllowed`] if a requested scope is not registered.
    pub fn client_credentials_grant(
        &mut self,
        now: SimTime,
        client_id: &str,
        client_secret: &str,
        scopes: &[&str],
    ) -> Result<Token, AuthError> {
        let client = self
            .clients
            .get(client_id)
            .ok_or(AuthError::InvalidClient)?;
        if !constant_time_eq(&client.secret_hash, &hash_secret(client_secret)) {
            return Err(AuthError::InvalidClient);
        }
        let mut granted = BTreeSet::new();
        for s in scopes {
            if !client.allowed_scopes.contains(*s) {
                return Err(AuthError::ScopeNotAllowed((*s).to_owned()));
            }
            granted.insert((*s).to_owned());
        }
        Ok(self.mint(format!("client:{client_id}"), granted, now))
    }

    /// OAuth resource-owner-password grant.
    ///
    /// The granted scopes are the user's roles as `role:<r>` scopes.
    ///
    /// # Errors
    /// [`AuthError::InvalidCredentials`] on bad username/password.
    pub fn password_grant(
        &mut self,
        now: SimTime,
        username: &str,
        password: &str,
    ) -> Result<Token, AuthError> {
        let user = self
            .users
            .get(username)
            .ok_or(AuthError::InvalidCredentials)?;
        if !constant_time_eq(&user.password_hash, &hash_secret(password)) {
            return Err(AuthError::InvalidCredentials);
        }
        let scopes: BTreeSet<Scope> = user.roles.iter().map(|r| format!("role:{r}")).collect();
        Ok(self.mint(format!("user:{username}"), scopes, now))
    }

    /// Validates a bearer token (the PEP's introspection call).
    ///
    /// # Errors
    /// [`AuthError::InvalidToken`] for unknown/forged tokens,
    /// [`AuthError::Expired`] / [`AuthError::Revoked`] accordingly.
    pub fn validate(&self, now: SimTime, token: &Token) -> Result<TokenInfo, AuthError> {
        let issued = self
            .issued
            .get(token.as_str())
            .ok_or(AuthError::InvalidToken)?;
        if issued.revoked {
            return Err(AuthError::Revoked);
        }
        if now >= issued.info.expires_at {
            return Err(AuthError::Expired);
        }
        Ok(issued.info.clone())
    }

    /// Revokes a token immediately.
    pub fn revoke(&mut self, token: &Token) {
        if let Some(t) = self.issued.get_mut(token.as_str()) {
            t.revoked = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idm() -> IdentityProvider {
        let mut idm = IdentityProvider::new(b"key", SimDuration::from_hours(1));
        idm.register_client("gw", "gw-secret", &["context:write", "context:read"]);
        idm.register_user("maria", "grape$", &["farmer", "owner:guaspari"]);
        idm
    }

    #[test]
    fn client_grant_and_validate() {
        let mut i = idm();
        let t = i
            .client_credentials_grant(SimTime::ZERO, "gw", "gw-secret", &["context:write"])
            .unwrap();
        let info = i.validate(SimTime::ZERO, &t).unwrap();
        assert_eq!(info.subject, "client:gw");
        assert!(info.has_scope("context:write"));
        assert!(!info.has_scope("context:read")); // not requested
    }

    #[test]
    fn wrong_secret_rejected() {
        let mut i = idm();
        assert_eq!(
            i.client_credentials_grant(SimTime::ZERO, "gw", "wrong", &[]),
            Err(AuthError::InvalidClient)
        );
        assert_eq!(
            i.client_credentials_grant(SimTime::ZERO, "ghost", "x", &[]),
            Err(AuthError::InvalidClient)
        );
    }

    #[test]
    fn scope_escalation_rejected() {
        let mut i = idm();
        assert_eq!(
            i.client_credentials_grant(SimTime::ZERO, "gw", "gw-secret", &["actuator:command"]),
            Err(AuthError::ScopeNotAllowed("actuator:command".into()))
        );
    }

    #[test]
    fn password_grant_carries_roles() {
        let mut i = idm();
        let access = i.password_grant(SimTime::ZERO, "maria", "grape$").unwrap();
        let info = i.validate(SimTime::ZERO, &access).unwrap();
        assert_eq!(info.subject, "user:maria");
        assert!(info.has_scope("role:farmer"));
        assert!(info.has_scope("role:owner:guaspari"));
    }

    #[test]
    fn wrong_password_rejected() {
        let mut i = idm();
        assert_eq!(
            i.password_grant(SimTime::ZERO, "maria", "wrong"),
            Err(AuthError::InvalidCredentials)
        );
    }

    #[test]
    fn tokens_expire() {
        let mut i = idm();
        let t = i
            .client_credentials_grant(SimTime::ZERO, "gw", "gw-secret", &[])
            .unwrap();
        assert!(i.validate(SimTime::from_secs(3599), &t).is_ok());
        assert_eq!(
            i.validate(SimTime::from_hours(1), &t),
            Err(AuthError::Expired)
        );
    }

    #[test]
    fn revocation_immediate() {
        let mut i = idm();
        let t = i
            .client_credentials_grant(SimTime::ZERO, "gw", "gw-secret", &[])
            .unwrap();
        i.revoke(&t);
        assert_eq!(i.validate(SimTime::ZERO, &t), Err(AuthError::Revoked));
    }

    #[test]
    fn forged_token_rejected() {
        let i = idm();
        let forged = Token("deadbeef.cafebabe".to_owned());
        assert_eq!(
            i.validate(SimTime::ZERO, &forged),
            Err(AuthError::InvalidToken)
        );
    }

    #[test]
    fn tokens_are_unique() {
        let mut i = idm();
        let a = i
            .client_credentials_grant(SimTime::ZERO, "gw", "gw-secret", &[])
            .unwrap();
        let b = i
            .client_credentials_grant(SimTime::ZERO, "gw", "gw-secret", &[])
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn debug_redacts_token() {
        let mut i = idm();
        let t = i
            .client_credentials_grant(SimTime::ZERO, "gw", "gw-secret", &[])
            .unwrap();
        let dbg = format!("{t:?}");
        assert!(dbg.len() < t.as_str().len());
        assert!(dbg.contains('…'));
    }
}
