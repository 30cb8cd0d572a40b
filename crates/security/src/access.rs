//! Policy-based access control (PEP/PDP) with per-owner data governance.
//!
//! The paper: "The SWAMP architecture must deal with the control of data by
//! the farmers or producers, ensuring that each owner controls their data
//! and decides the access control to the data and the services." The PDP
//! here implements that: resources carry an owner; the owner is always
//! authorized; everything else requires an explicit policy; deny overrides
//! allow; default deny.

use std::collections::BTreeSet;
use std::fmt;

use crate::identity::TokenInfo;

/// Operations on platform resources.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// Read context data / history.
    Read,
    /// Write context data (telemetry ingestion).
    Write,
    /// Command an actuator.
    Command,
    /// Administer (register devices, edit policies).
    Admin,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Action::Read => "read",
            Action::Write => "write",
            Action::Command => "command",
            Action::Admin => "admin",
        };
        f.write_str(s)
    }
}

/// A protected resource: an entity (device, farm dataset, service) with an
/// owner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Resource {
    /// Resource identifier, matched by prefix in policies (e.g.
    /// `"urn:swamp:guaspari:probe:3"`).
    pub id: String,
    /// Owning principal (e.g. `"owner:guaspari"`).
    pub owner: String,
}

impl Resource {
    /// Creates a resource.
    pub fn new(id: impl Into<String>, owner: impl Into<String>) -> Self {
        Resource {
            id: id.into(),
            owner: owner.into(),
        }
    }
}

/// Policy effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effect {
    /// Grant the action.
    Allow,
    /// Forbid the action (overrides any allow).
    Deny,
}

/// Who a policy applies to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubjectMatch {
    /// A specific subject string (`user:maria`, `client:gw`).
    Exact(String),
    /// Any subject holding a scope (`role:agronomist`).
    HasScope(String),
    /// Any authenticated subject.
    Any,
}

impl SubjectMatch {
    fn matches(&self, token: &TokenInfo) -> bool {
        match self {
            SubjectMatch::Exact(s) => &token.subject == s,
            SubjectMatch::HasScope(scope) => token.has_scope(scope),
            SubjectMatch::Any => true,
        }
    }
}

/// An access policy row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Policy {
    /// Allow or deny.
    pub effect: Effect,
    /// Subject selector.
    pub subject: SubjectMatch,
    /// Resource-id prefix this policy covers (`""` covers everything).
    pub resource_prefix: String,
    /// Actions covered.
    pub actions: BTreeSet<Action>,
}

impl Policy {
    /// Convenience constructor.
    pub fn new(
        effect: Effect,
        subject: SubjectMatch,
        resource_prefix: impl Into<String>,
        actions: &[Action],
    ) -> Self {
        Policy {
            effect,
            subject,
            resource_prefix: resource_prefix.into(),
            actions: actions.iter().copied().collect(),
        }
    }

    fn matches(&self, token: &TokenInfo, resource: &Resource, action: Action) -> bool {
        self.actions.contains(&action)
            && resource.id.starts_with(&self.resource_prefix)
            && self.subject.matches(token)
    }
}

/// The outcome of a decision, with the reason for auditability.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Permitted because the subject owns the resource.
    PermitOwner,
    /// Permitted by an explicit allow policy.
    PermitPolicy,
    /// Denied by an explicit deny policy.
    DenyPolicy,
    /// Denied because nothing permitted it (default deny).
    DenyDefault,
}

impl Decision {
    /// Whether the action may proceed.
    pub fn is_permit(&self) -> bool {
        matches!(self, Decision::PermitOwner | Decision::PermitPolicy)
    }
}

/// The policy decision point.
///
/// # Example
/// ```
/// use swamp_security::access::*;
/// use swamp_security::identity::TokenInfo;
/// use std::collections::BTreeSet;
/// use swamp_sim::SimTime;
///
/// let mut pdp = Pdp::new();
/// pdp.add_policy(Policy::new(
///     Effect::Allow,
///     SubjectMatch::HasScope("role:agronomist".into()),
///     "urn:swamp:guaspari:",
///     &[Action::Read],
/// ));
///
/// let mut scopes = BTreeSet::new();
/// scopes.insert("role:agronomist".to_string());
/// let token = TokenInfo {
///     subject: "user:ana".into(), scopes, expires_at: SimTime::from_hours(1) };
/// let vineyard_probe = Resource::new("urn:swamp:guaspari:probe:1", "owner:guaspari");
/// assert!(pdp.decide(&token, &vineyard_probe, Action::Read).is_permit());
/// assert!(!pdp.decide(&token, &vineyard_probe, Action::Command).is_permit());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Pdp {
    policies: Vec<Policy>,
}

impl Pdp {
    /// Creates an empty (default-deny except ownership) PDP.
    pub fn new() -> Self {
        Pdp::default()
    }

    /// Installs a policy.
    pub fn add_policy(&mut self, policy: Policy) {
        self.policies.push(policy);
    }

    /// Decides whether `token` may perform `action` on `resource`.
    ///
    /// Order: explicit deny > ownership > explicit allow > default deny.
    /// (A deny policy can therefore fence even the owner — e.g. a consortium
    /// lock on gates during maintenance.)
    pub fn decide(&self, token: &TokenInfo, resource: &Resource, action: Action) -> Decision {
        let mut allowed = false;
        for p in &self.policies {
            if p.matches(token, resource, action) {
                match p.effect {
                    Effect::Deny => return Decision::DenyPolicy,
                    Effect::Allow => allowed = true,
                }
            }
        }
        // Ownership: subject holds the owner scope or *is* the owner string.
        if token.subject == resource.owner || token.has_scope(&format!("role:{}", resource.owner)) {
            return Decision::PermitOwner;
        }
        if allowed {
            return Decision::PermitPolicy;
        }
        Decision::DenyDefault
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use swamp_sim::SimTime;

    fn token(subject: &str, scopes: &[&str]) -> TokenInfo {
        TokenInfo {
            subject: subject.to_owned(),
            scopes: scopes
                .iter()
                .map(|s| (*s).to_owned())
                .collect::<BTreeSet<_>>(),
            expires_at: SimTime::from_hours(1),
        }
    }

    fn guaspari_probe() -> Resource {
        Resource::new("urn:swamp:guaspari:probe:1", "owner:guaspari")
    }

    #[test]
    fn default_deny() {
        let pdp = Pdp::new();
        let d = pdp.decide(&token("user:eve", &[]), &guaspari_probe(), Action::Read);
        assert_eq!(d, Decision::DenyDefault);
        assert!(!d.is_permit());
    }

    #[test]
    fn owner_always_reads_their_data() {
        let pdp = Pdp::new();
        let owner = token("user:maria", &["role:owner:guaspari"]);
        for action in [Action::Read, Action::Write, Action::Command, Action::Admin] {
            assert_eq!(
                pdp.decide(&owner, &guaspari_probe(), action),
                Decision::PermitOwner,
                "{action}"
            );
        }
    }

    #[test]
    fn scoped_allow_policy() {
        let mut pdp = Pdp::new();
        pdp.add_policy(Policy::new(
            Effect::Allow,
            SubjectMatch::HasScope("role:agronomist".into()),
            "urn:swamp:guaspari:",
            &[Action::Read],
        ));
        let agro = token("user:ana", &["role:agronomist"]);
        assert_eq!(
            pdp.decide(&agro, &guaspari_probe(), Action::Read),
            Decision::PermitPolicy
        );
        // Not beyond the granted action.
        assert_eq!(
            pdp.decide(&agro, &guaspari_probe(), Action::Command),
            Decision::DenyDefault
        );
        // Not beyond the resource prefix (data stays apart between farms).
        let matopiba = Resource::new("urn:swamp:matopiba:probe:1", "owner:matopiba");
        assert_eq!(
            pdp.decide(&agro, &matopiba, Action::Read),
            Decision::DenyDefault
        );
    }

    #[test]
    fn deny_overrides_allow_and_ownership() {
        let mut pdp = Pdp::new();
        pdp.add_policy(Policy::new(
            Effect::Allow,
            SubjectMatch::Any,
            "urn:swamp:cbec:gate:",
            &[Action::Command],
        ));
        pdp.add_policy(Policy::new(
            Effect::Deny,
            SubjectMatch::Any,
            "urn:swamp:cbec:gate:7",
            &[Action::Command],
        ));
        let gate7 = Resource::new("urn:swamp:cbec:gate:7", "owner:cbec");
        let owner = token("user:op", &["role:owner:cbec"]);
        assert_eq!(
            pdp.decide(&owner, &gate7, Action::Command),
            Decision::DenyPolicy
        );
        // Sibling gate is still commandable.
        let gate8 = Resource::new("urn:swamp:cbec:gate:8", "owner:cbec");
        assert!(pdp.decide(&owner, &gate8, Action::Command).is_permit());
    }

    #[test]
    fn exact_subject_policy() {
        let mut pdp = Pdp::new();
        pdp.add_policy(Policy::new(
            Effect::Allow,
            SubjectMatch::Exact("client:scheduler".into()),
            "",
            &[Action::Command],
        ));
        assert!(pdp
            .decide(
                &token("client:scheduler", &[]),
                &guaspari_probe(),
                Action::Command
            )
            .is_permit());
        assert!(!pdp
            .decide(
                &token("client:other", &[]),
                &guaspari_probe(),
                Action::Command
            )
            .is_permit());
    }

    #[test]
    fn empty_prefix_covers_everything() {
        let mut pdp = Pdp::new();
        pdp.add_policy(Policy::new(
            Effect::Allow,
            SubjectMatch::Any,
            "",
            &[Action::Read],
        ));
        let r = Resource::new("anything", "owner:x");
        assert!(pdp
            .decide(&token("user:a", &[]), &r, Action::Read)
            .is_permit());
    }

    #[test]
    fn counters_track() {
        let pdp = Pdp::new();
        let t = token("user:eve", &[]);
        let owner = token("user:m", &["role:owner:guaspari"]);
        // The caller tallies what each call returns.
        let decisions = [
            pdp.decide(&t, &guaspari_probe(), Action::Read),
            pdp.decide(&t, &guaspari_probe(), Action::Write),
            pdp.decide(&owner, &guaspari_probe(), Action::Read),
        ];
        let denials = decisions.iter().filter(|d| !d.is_permit()).count();
        assert_eq!((decisions.len(), denials), (3, 2));
        assert!(pdp.policies.is_empty());
    }
}
