//! The NGSI-like context broker (FIWARE Orion analogue).
//!
//! Entities are upserted (attribute-merge semantics); subscriptions match
//! on entity type and/or id prefix and optionally a watched attribute set,
//! and produce queued [`Notification`]s that consumers drain with
//! [`ContextBroker::drain_notifications_into`] — deterministic and free of
//! callback re-entrancy. Neither an entity nor a subscription is ever
//! removed: both live as long as the broker.
//!
//! # Hot-path design
//!
//! The sensor→broker ingestion path is the platform's throughput-critical
//! loop (paper claim E11), so the broker is built around three ideas:
//!
//! - **Zero-copy fan-out**: entities are stored as [`Arc<Entity>`] and
//!   notifications share that snapshot (plus an `Arc<[String]>` changed-set)
//!   instead of deep-cloning per subscriber. An upsert with N matching
//!   subscribers performs zero per-subscriber entity clones; the stored
//!   entity is copy-on-write ([`Arc::make_mut`]), so a deep clone happens at
//!   most once per upsert and only while an earlier snapshot is still held
//!   by an undrained notification. Notifications are immutable snapshots —
//!   never views of live broker state.
//! - **One subscription table**: subscriptions live in one id-ordered map,
//!   each with its filter and its queue, and a changed upsert scans it with
//!   [`SubscriptionFilter::matches`]. No workload registers more than one
//!   subscription, so a per-type routing index would cost more to keep
//!   than the scan it saves (DESIGN.md §6 names the workload that would
//!   justify one).
//! - **Names only when heard**: [`ContextBroker::upsert_batch`] is a loop
//!   of [`ContextBroker::upsert`] that builds an update's changed-name set
//!   only when a subscription could hear it.

use std::collections::BTreeMap;
use std::sync::Arc;

use swamp_codec::ngsi::{Entity, EntityId};
use swamp_sim::SimTime;

/// Identifier of a subscription.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriptionId(u64);

/// What a subscription watches.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SubscriptionFilter {
    /// Match entities of this type (None = any).
    pub entity_type: Option<String>,
    /// Match entity ids with this prefix (None = any).
    pub id_prefix: Option<String>,
    /// Only fire when one of these attributes changed (empty = any change).
    pub watched_attrs: Vec<String>,
}

impl SubscriptionFilter {
    /// Matches every update.
    pub fn any() -> Self {
        SubscriptionFilter::default()
    }

    /// Matches a specific entity type.
    pub fn for_type(entity_type: impl Into<String>) -> Self {
        SubscriptionFilter {
            entity_type: Some(entity_type.into()),
            ..SubscriptionFilter::default()
        }
    }

    /// Whether an upsert of `entity` that changed `changed` fires this
    /// subscription.
    pub fn matches(&self, entity: &Entity, changed: &[String]) -> bool {
        if let Some(t) = &self.entity_type {
            if entity.entity_type() != t {
                return false;
            }
        }
        if let Some(p) = &self.id_prefix {
            if !entity.id().as_str().starts_with(p.as_str()) {
                return false;
            }
        }
        if !self.watched_attrs.is_empty() && !changed.iter().any(|c| self.watched_attrs.contains(c))
        {
            return false;
        }
        true
    }
}

/// A queued change notification.
///
/// The entity snapshot and changed-attribute set are shared (`Arc`) across
/// every subscriber the triggering upsert fanned out to: cloning a
/// `Notification` is cheap and never copies entity data. Snapshots are
/// immutable — later upserts copy-on-write the stored entity and can never
/// mutate what a notification holds.
#[derive(Clone, Debug, PartialEq)]
pub struct Notification {
    /// The subscription that fired.
    pub subscription: SubscriptionId,
    /// Snapshot of the entity after the update (shared, immutable).
    pub entity: Arc<Entity>,
    /// Attribute names that changed in the triggering update (shared).
    pub changed_attrs: Arc<[String]>,
    /// When the update happened.
    pub at: SimTime,
}

/// Error: the subscription id is not (or no longer) registered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnknownSubscription(pub SubscriptionId);

impl std::fmt::Display for UnknownSubscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown subscription {:?}", self.0)
    }
}
impl std::error::Error for UnknownSubscription {}

/// The context broker.
///
/// # Example
/// ```
/// use swamp_core::broker::{ContextBroker, SubscriptionFilter};
/// use swamp_codec::ngsi::Entity;
/// use swamp_sim::SimTime;
///
/// let mut broker = ContextBroker::new();
/// let sub = broker.subscribe(SubscriptionFilter::for_type("SoilProbe"));
///
/// let mut probe = Entity::new("urn:swamp:probe:1", "SoilProbe");
/// probe.set("moisture_vwc", 0.24);
/// broker.upsert(SimTime::ZERO, probe);
///
/// let mut notes = Vec::new();
/// assert_eq!(broker.drain_notifications_into(sub, &mut notes), Ok(1));
/// assert_eq!(&notes[0].changed_attrs[..], ["moisture_vwc".to_string()]);
/// ```
#[derive(Debug, Default)]
pub struct ContextBroker {
    entities: BTreeMap<EntityId, Arc<Entity>>,
    /// Every live subscription in id order, which is the fan-out order.
    subscriptions: BTreeMap<SubscriptionId, Subscription>,
    next_sub: u64,
}

/// A registered subscription: what it watches and what it has not drained.
#[derive(Debug)]
struct Subscription {
    filter: SubscriptionFilter,
    queue: Vec<Notification>,
}

impl ContextBroker {
    /// Creates an empty broker.
    pub fn new() -> Self {
        ContextBroker::default()
    }

    /// Number of stored entities.
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Registers a subscription; returns its id.
    pub fn subscribe(&mut self, filter: SubscriptionFilter) -> SubscriptionId {
        let id = SubscriptionId(self.next_sub);
        self.next_sub += 1;
        self.subscriptions.insert(
            id,
            Subscription {
                filter,
                queue: Vec::new(),
            },
        );
        id
    }

    /// Upserts an entity: existing attributes are merged (NGSI update
    /// semantics), subscriptions fire on the changed attribute set.
    /// Returns the names of attributes that changed value — the same
    /// (shared) set delivered to subscribers.
    pub fn upsert(&mut self, now: SimTime, update: Entity) -> Arc<[String]> {
        self.upsert_one(now, update, true)
            .1
            .unwrap_or_else(|| Arc::from(Vec::new()))
    }

    /// Upserts a batch of entities. Observationally equivalent to calling
    /// [`ContextBroker::upsert`] on each element in order; returns how many
    /// updates changed at least one attribute. Unlike `upsert` it has no
    /// use for the changed names itself, so an update nobody is subscribed
    /// to never builds them.
    pub fn upsert_batch(
        &mut self,
        now: SimTime,
        updates: impl IntoIterator<Item = Entity>,
    ) -> usize {
        let mut changed_updates = 0;
        for update in updates {
            if self.upsert_one(now, update, false).0 > 0 {
                changed_updates += 1;
            }
        }
        changed_updates
    }

    /// Applies one update, consuming it: a known entity takes the update's
    /// attributes by move (no key or value is copied), a new one is stored
    /// as it arrived. Returns how many attributes changed value, and their
    /// names when someone needs them — the caller (`want_names`) or a
    /// subscription whose type filter admits the entity.
    fn upsert_one(
        &mut self,
        now: SimTime,
        update: Entity,
        want_names: bool,
    ) -> (usize, Option<Arc<[String]>>) {
        let subscriptions = &self.subscriptions;
        // Fan-out below matches the *stored* entity's type, which a merge
        // never changes, so that type (the update's own only on first sight)
        // decides whether a subscription can be listening.
        let listened = |stored_type: &str| {
            want_names
                || subscriptions.values().any(|sub| {
                    sub.filter
                        .entity_type
                        .as_deref()
                        .is_none_or(|t| t == stored_type)
                })
        };
        let mut changed_count = 0;
        let mut names: Vec<String> = Vec::new();
        let (snapshot, need_names): (Arc<Entity>, bool) = match self.entities.get_mut(update.id()) {
            Some(existing) => {
                let need_names = listened(existing.entity_type());
                for (name, attr) in update.attributes() {
                    if existing.attribute(name) != Some(attr) {
                        changed_count += 1;
                        if need_names {
                            names.push(name.to_owned());
                        }
                    }
                }
                if changed_count > 0 {
                    // Copy-on-write: clones the stored entity only if an
                    // earlier snapshot is still alive in some queue.
                    Arc::make_mut(existing).merge_owned(update);
                }
                (Arc::clone(existing), need_names)
            }
            None => {
                let need_names = listened(update.entity_type());
                changed_count = update.len();
                if need_names {
                    names.extend(update.attributes().map(|(name, _)| name.to_owned()));
                }
                let arc = Arc::new(update);
                self.entities.insert(arc.id().clone(), Arc::clone(&arc));
                (arc, need_names)
            }
        };
        if changed_count == 0 || !need_names {
            return (changed_count, None);
        }
        let changed: Arc<[String]> = Arc::from(names);

        for (&sub_id, sub) in &mut self.subscriptions {
            if sub.filter.matches(&snapshot, &changed) {
                sub.queue.push(Notification {
                    subscription: sub_id,
                    entity: Arc::clone(&snapshot),
                    changed_attrs: Arc::clone(&changed),
                    at: now,
                });
            }
        }
        (changed_count, Some(changed))
    }

    /// Looks up an entity by id.
    pub fn entity(&self, id: &EntityId) -> Option<&Entity> {
        self.entities.get(id).map(Arc::as_ref)
    }

    /// Drains pending notifications into `out` (appending, preserving
    /// delivery order) and returns how many were drained. The queue keeps
    /// its allocated capacity inside the broker, so a steady upsert→drain
    /// cycle stops allocating once warm.
    ///
    /// # Errors
    /// [`UnknownSubscription`] if this broker never registered the id.
    pub fn drain_notifications_into(
        &mut self,
        id: SubscriptionId,
        out: &mut Vec<Notification>,
    ) -> Result<usize, UnknownSubscription> {
        let queue = &mut self
            .subscriptions
            .get_mut(&id)
            .ok_or(UnknownSubscription(id))?
            .queue;
        let n = queue.len();
        out.append(queue);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(id: &str, vwc: f64) -> Entity {
        let mut e = Entity::new(id, "SoilProbe");
        e.set("moisture_vwc", vwc);
        e
    }

    /// The subscription's pending notifications, drained.
    fn drain(
        b: &mut ContextBroker,
        sub: SubscriptionId,
    ) -> Result<Vec<Notification>, UnknownSubscription> {
        let mut out = Vec::new();
        b.drain_notifications_into(sub, &mut out).map(|_| out)
    }

    #[test]
    fn upsert_creates_then_merges() {
        let mut b = ContextBroker::new();
        let changed = b.upsert(SimTime::ZERO, probe("urn:p1", 0.2));
        assert_eq!(&changed[..], ["moisture_vwc".to_string()]);
        assert_eq!(b.entity_count(), 1);

        // Merge adds attribute without losing the old one.
        let mut update = Entity::new("urn:p1", "SoilProbe");
        update.set("temperature_c", 19.5);
        let changed = b.upsert(SimTime::ZERO, update);
        assert_eq!(&changed[..], ["temperature_c".to_string()]);
        let e = b.entity(&"urn:p1".into()).unwrap();
        assert_eq!(e.number("moisture_vwc"), Some(0.2));
        assert_eq!(e.number("temperature_c"), Some(19.5));
    }

    #[test]
    fn unchanged_value_is_not_a_change() {
        let mut b = ContextBroker::new();
        b.upsert(SimTime::ZERO, probe("urn:p1", 0.2));
        let changed = b.upsert(SimTime::ZERO, probe("urn:p1", 0.2));
        assert!(changed.is_empty());
        let changed = b.upsert(SimTime::ZERO, probe("urn:p1", 0.25));
        assert_eq!(&changed[..], ["moisture_vwc".to_string()]);
    }

    #[test]
    fn type_subscription_fires_selectively() {
        let mut b = ContextBroker::new();
        let sub = b.subscribe(SubscriptionFilter::for_type("SoilProbe"));
        b.upsert(SimTime::ZERO, probe("urn:p1", 0.2));
        let mut pivot = Entity::new("urn:pivot:1", "CenterPivot");
        pivot.set("angle_deg", 10.0);
        b.upsert(SimTime::ZERO, pivot);
        let notes = drain(&mut b, sub).unwrap();
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].entity.id().as_str(), "urn:p1");
        // Queue drained (but still registered).
        assert_eq!(b.drain_notifications_into(sub, &mut Vec::new()), Ok(0));
    }

    #[test]
    fn prefix_and_attr_filters() {
        let mut b = ContextBroker::new();
        let sub = b.subscribe(SubscriptionFilter {
            entity_type: None,
            id_prefix: Some("urn:swamp:guaspari:".into()),
            watched_attrs: vec!["moisture_vwc".into()],
        });
        b.upsert(SimTime::ZERO, probe("urn:swamp:guaspari:p1", 0.2));
        b.upsert(SimTime::ZERO, probe("urn:swamp:matopiba:p1", 0.2));
        // Attribute not watched: no fire.
        let mut e = Entity::new("urn:swamp:guaspari:p1", "SoilProbe");
        e.set("battery_fraction", 0.8);
        b.upsert(SimTime::ZERO, e);
        let notes = drain(&mut b, sub).unwrap();
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].entity.id().as_str(), "urn:swamp:guaspari:p1");
    }

    #[test]
    fn no_notification_on_noop_update() {
        let mut b = ContextBroker::new();
        let sub = b.subscribe(SubscriptionFilter::any());
        b.upsert(SimTime::ZERO, probe("urn:p1", 0.2));
        drain(&mut b, sub).unwrap();
        b.upsert(SimTime::ZERO, probe("urn:p1", 0.2)); // identical
        assert_eq!(b.drain_notifications_into(sub, &mut Vec::new()), Ok(0));
    }

    #[test]
    fn unknown_subscription_is_not_an_empty_queue() {
        let mut b = ContextBroker::new();
        let sub = b.subscribe(SubscriptionFilter::any());
        let never = SubscriptionId(sub.0 + 1);
        b.upsert(SimTime::ZERO, probe("urn:p1", 0.2));
        assert_eq!(drain(&mut b, never), Err(UnknownSubscription(never)));
        assert_eq!(drain(&mut b, sub).unwrap().len(), 1);
        assert_eq!(drain(&mut b, sub), Ok(vec![]));
    }

    #[test]
    fn each_changing_upsert_notifies_once() {
        let mut b = ContextBroker::new();
        let sub = b.subscribe(SubscriptionFilter::any());
        b.upsert(SimTime::ZERO, probe("urn:p1", 0.1));
        b.upsert(SimTime::ZERO, probe("urn:p1", 0.2));
        b.upsert(SimTime::ZERO, probe("urn:p1", 0.2));
        let values: Vec<_> = drain(&mut b, sub)
            .unwrap()
            .iter()
            .map(|n| n.entity.number("moisture_vwc"))
            .collect();
        assert_eq!(values, [Some(0.1), Some(0.2)]);
        assert_eq!(b.entity_count(), 1);
    }

    #[test]
    fn multiple_subscribers_each_get_copy() {
        let mut b = ContextBroker::new();
        let s1 = b.subscribe(SubscriptionFilter::any());
        let s2 = b.subscribe(SubscriptionFilter::any());
        b.upsert(SimTime::ZERO, probe("urn:p1", 0.1));
        assert_eq!(drain(&mut b, s1).unwrap().len(), 1);
        assert_eq!(drain(&mut b, s2).unwrap().len(), 1);
    }

    #[test]
    fn subscribers_share_one_snapshot_but_drain_independently() {
        let mut b = ContextBroker::new();
        let s1 = b.subscribe(SubscriptionFilter::any());
        let s2 = b.subscribe(SubscriptionFilter::for_type("SoilProbe"));
        let s3 = b.subscribe(SubscriptionFilter::any());
        b.upsert(SimTime::ZERO, probe("urn:p1", 0.1));

        // Draining s1 does not consume s2/s3's copies.
        let n1 = drain(&mut b, s1).unwrap();
        assert_eq!(n1.len(), 1);
        let n2 = drain(&mut b, s2).unwrap();
        let n3 = drain(&mut b, s3).unwrap();
        assert_eq!((n2.len(), n3.len()), (1, 1));

        // All three hold the *same* allocation — zero-copy fan-out.
        assert!(Arc::ptr_eq(&n1[0].entity, &n2[0].entity));
        assert!(Arc::ptr_eq(&n1[0].entity, &n3[0].entity));
        assert!(Arc::ptr_eq(&n1[0].changed_attrs, &n2[0].changed_attrs));
        // And the stored entity is that same snapshot (no insert-path clone).
        let stored = &b.entities[&EntityId::from("urn:p1")];
        assert!(Arc::ptr_eq(stored, &n1[0].entity));
    }

    #[test]
    fn snapshots_are_immutable_under_later_upserts() {
        let mut b = ContextBroker::new();
        let sub = b.subscribe(SubscriptionFilter::any());
        b.upsert(SimTime::ZERO, probe("urn:p1", 0.1));
        let old = drain(&mut b, sub).unwrap();
        // A later upsert copy-on-writes; the held snapshot keeps its value.
        b.upsert(SimTime::ZERO, probe("urn:p1", 0.9));
        assert_eq!(old[0].entity.number("moisture_vwc"), Some(0.1));
        assert_eq!(
            b.entity(&"urn:p1".into()).unwrap().number("moisture_vwc"),
            Some(0.9)
        );
    }

    #[test]
    fn drain_into_appends_in_order_and_reports_count() {
        let mut b = ContextBroker::new();
        let sub = b.subscribe(SubscriptionFilter::any());
        b.upsert(SimTime::ZERO, probe("urn:p1", 0.1));
        b.upsert(SimTime::ZERO, probe("urn:p1", 0.2));
        let mut buf = Vec::new();
        assert_eq!(b.drain_notifications_into(sub, &mut buf), Ok(2));
        assert_eq!(b.drain_notifications_into(sub, &mut buf), Ok(0));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf[0].entity.number("moisture_vwc"), Some(0.1));
        assert_eq!(buf[1].entity.number("moisture_vwc"), Some(0.2));
    }

    #[test]
    fn upsert_batch_equivalent_to_upsert_loop() {
        let updates = || {
            vec![
                probe("urn:p1", 0.1),
                probe("urn:p2", 0.2),
                probe("urn:p1", 0.1), // no-op
                probe("urn:p1", 0.3),
                {
                    let mut e = Entity::new("urn:pivot", "CenterPivot");
                    e.set("angle_deg", 45.0);
                    e
                },
                // Same id under another type: the stored type routes, so
                // the probe's subscriber hears this one...
                {
                    let mut e = Entity::new("urn:p2", "Valve");
                    e.set("moisture_vwc", 0.9);
                    e
                },
                // ...and not this one (stored as a CenterPivot).
                {
                    let mut e = Entity::new("urn:pivot", "SoilProbe");
                    e.set("angle_deg", 50.0);
                    e
                },
            ]
        };
        let mut looped = ContextBroker::new();
        let sub_l = looped.subscribe(SubscriptionFilter::for_type("SoilProbe"));
        let mut batched = ContextBroker::new();
        let sub_b = batched.subscribe(SubscriptionFilter::for_type("SoilProbe"));

        let mut changed_updates = 0;
        for u in updates() {
            if !looped.upsert(SimTime::from_secs(7), u).is_empty() {
                changed_updates += 1;
            }
        }
        let batch_changed = batched.upsert_batch(SimTime::from_secs(7), updates());
        assert_eq!(batch_changed, changed_updates);
        assert_eq!(batched.entity_count(), looped.entity_count());

        let nl = drain(&mut looped, sub_l).unwrap();
        let nb = drain(&mut batched, sub_b).unwrap();
        // p1, p2, p1 again, then p2 under the mismatched type.
        assert_eq!(nl.len(), 4);
        assert_eq!(nl[3].entity.entity_type(), "SoilProbe");
        assert_eq!(nl[3].entity.number("moisture_vwc"), Some(0.9));
        assert_eq!(nl.len(), nb.len());
        for (a, b) in nl.iter().zip(&nb) {
            assert_eq!(a.entity, b.entity);
            assert_eq!(a.changed_attrs, b.changed_attrs);
            assert_eq!(a.at, b.at);
        }
        for id in ["urn:p1", "urn:p2", "urn:pivot"] {
            assert_eq!(looped.entity(&id.into()), batched.entity(&id.into()));
        }
    }

    #[test]
    fn fanout_order_is_subscription_id_order() {
        let mut b = ContextBroker::new();
        // Interleave typed and untyped subscriptions.
        let s_any1 = b.subscribe(SubscriptionFilter::any());
        let s_typed = b.subscribe(SubscriptionFilter::for_type("SoilProbe"));
        let s_any2 = b.subscribe(SubscriptionFilter::any());
        b.upsert(SimTime::ZERO, probe("urn:p1", 0.1));
        for s in [s_any1, s_typed, s_any2] {
            let n = drain(&mut b, s).unwrap();
            assert_eq!(n.len(), 1);
            assert_eq!(n[0].subscription, s);
        }
    }
}
