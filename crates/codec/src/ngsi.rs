//! The NGSI-like context data model used by the SWAMP context broker.
//!
//! FIWARE's Orion broker models the world as *entities* (a soil probe, a
//! center pivot, a farm) carrying named, typed *attributes* (soil moisture,
//! angular position, owner), each with optional metadata and a timestamp.
//! SWAMP reproduces that model: [`Entity`] round-trips losslessly through
//! [`Json`], which is what travels over the simulated network.
//!
//! The wire form has one definition and two writers that tests hold
//! byte-identical: [`Entity::to_json`] builds the [`Json`] tree for
//! consumers that want a tree (reports, tests), and
//! [`Entity::write_compact`] streams the same bytes into a caller-owned
//! buffer for the platform's write path, which only ever wanted bytes.
//! Decoding mirrors it: [`Entity::from_json_owned`] moves the parsed
//! strings into the entity, [`Entity::from_json`] is that decoder over a
//! clone for callers that keep their tree, and [`Entity::read_compact`]
//! reads the bytes straight into an entity for the platform's ingest path,
//! accepting exactly what the tree decoder accepts.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{write_escaped, write_number, Json, ParseJsonError, Parser};

/// A globally unique entity identifier (e.g. `urn:swamp:matopiba:probe:07`).
///
/// Newtype so device ids, farm ids and user ids cannot be mixed up with
/// arbitrary strings in platform APIs.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityId(String);

impl EntityId {
    /// Creates an id.
    ///
    /// # Panics
    /// Panics if `id` is empty or has surrounding whitespace; use
    /// [`EntityId::try_new`] for fallible construction.
    #[expect(clippy::expect_used, reason = "documented under # Panics")]
    pub fn new(id: impl Into<String>) -> Self {
        Self::try_new(id).expect("invalid entity id")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    /// Returns [`InvalidEntityId`] if the id is empty or has surrounding
    /// whitespace (ids appear in wire messages and policy rules where
    /// whitespace would be invisible).
    pub fn try_new(id: impl Into<String>) -> Result<Self, InvalidEntityId> {
        let id = id.into();
        if id.is_empty() || id.trim() != id {
            return Err(InvalidEntityId(id));
        }
        Ok(EntityId(id))
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EntityId({:?})", self.0)
    }
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for EntityId {
    fn from(s: &str) -> Self {
        EntityId::new(s)
    }
}

impl From<String> for EntityId {
    fn from(s: String) -> Self {
        EntityId::new(s)
    }
}

impl AsRef<str> for EntityId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Error for malformed entity ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvalidEntityId(String);

impl fmt::Display for InvalidEntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid entity id {:?}: must be non-empty without surrounding whitespace",
            self.0
        )
    }
}
impl std::error::Error for InvalidEntityId {}

/// The value of an attribute: a restricted, strongly typed subset of JSON.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// A finite numeric measurement or setting.
    Number(f64),
    /// A textual value (enum-like states, zone names, …).
    Text(String),
    /// A boolean flag (valve open, pump running, …).
    Flag(bool),
    /// A geographic position (latitude, longitude) in degrees.
    GeoPoint(f64, f64),
    /// A vector of numbers (per-zone rates, spectra, …).
    NumberList(Vec<f64>),
    /// Arbitrary structured payload (kept as JSON).
    Structured(Json),
}

impl AttrValue {
    /// Numeric value, if this is a `Number`.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            AttrValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Text value, if this is `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            AttrValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Flag value, if this is `Flag`.
    pub fn as_flag(&self) -> Option<bool> {
        match self {
            AttrValue::Flag(b) => Some(*b),
            _ => None,
        }
    }

    /// Geo point, if this is `GeoPoint`.
    pub fn as_geo(&self) -> Option<(f64, f64)> {
        match self {
            AttrValue::GeoPoint(lat, lon) => Some((*lat, *lon)),
            _ => None,
        }
    }

    /// Number list, if this is `NumberList`.
    pub fn as_number_list(&self) -> Option<&[f64]> {
        match self {
            AttrValue::NumberList(v) => Some(v),
            _ => None,
        }
    }

    /// Encodes the value as JSON.
    pub fn to_json(&self) -> Json {
        match self {
            AttrValue::Number(n) => Json::Number(*n),
            AttrValue::Text(s) => Json::String(s.clone()),
            AttrValue::Flag(b) => Json::Bool(*b),
            AttrValue::GeoPoint(lat, lon) => Json::object([
                ("type", Json::from("geo:point")),
                ("lat", Json::Number(*lat)),
                ("lon", Json::Number(*lon)),
            ]),
            AttrValue::NumberList(v) => Json::Array(v.iter().map(|&n| Json::Number(n)).collect()),
            AttrValue::Structured(j) => j.clone(),
        }
    }

    /// Decodes a value from JSON, inferring the most specific variant.
    /// Clones `j` and consumes the clone; a caller that owns the tree should
    /// call [`AttrValue::from_json_owned`].
    pub fn from_json(j: &Json) -> AttrValue {
        AttrValue::from_json_owned(j.clone())
    }

    /// Consuming [`AttrValue::from_json`]: text and structured payloads
    /// move out of `j` instead of being copied.
    pub fn from_json_owned(j: Json) -> AttrValue {
        match j {
            Json::Number(n) => AttrValue::Number(n),
            Json::String(s) => AttrValue::Text(s),
            Json::Bool(b) => AttrValue::Flag(b),
            Json::Object(o) if o.get("type").and_then(Json::as_str) == Some("geo:point") => {
                let lat = o.get("lat").and_then(Json::as_f64).unwrap_or(0.0);
                let lon = o.get("lon").and_then(Json::as_f64).unwrap_or(0.0);
                AttrValue::GeoPoint(lat, lon)
            }
            Json::Array(items) if items.iter().all(|i| i.as_f64().is_some()) => {
                AttrValue::NumberList(items.iter().filter_map(Json::as_f64).collect())
            }
            other => AttrValue::Structured(other),
        }
    }

    /// Streams the bytes of `self.to_json()`. Scalars are written in
    /// place; the three rare structured variants go through the tree, so
    /// their shape has one definition.
    fn write_compact(&self, out: &mut String) {
        match self {
            AttrValue::Number(n) => write_number(*n, out),
            AttrValue::Text(s) => write_escaped(s, out),
            AttrValue::Flag(b) => out.push_str(if *b { "true" } else { "false" }),
            AttrValue::Structured(j) => j.write_compact(out),
            AttrValue::GeoPoint(..) | AttrValue::NumberList(_) => {
                self.to_json().write_compact(out);
            }
        }
    }
}

impl From<f64> for AttrValue {
    fn from(n: f64) -> Self {
        AttrValue::Number(n)
    }
}
impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::Flag(b)
    }
}
impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Text(s.to_owned())
    }
}
impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Text(s)
    }
}
impl From<Vec<f64>> for AttrValue {
    fn from(v: Vec<f64>) -> Self {
        AttrValue::NumberList(v)
    }
}

/// One named attribute of an entity.
#[derive(Clone, Debug, PartialEq)]
pub struct Attribute {
    /// The attribute value.
    pub value: AttrValue,
    /// Milliseconds of virtual time at which the value was observed, if any.
    pub observed_at_ms: Option<u64>,
    /// Free-form metadata (unit, precision, provenance, …).
    pub metadata: BTreeMap<String, String>,
}

impl Attribute {
    /// Creates an attribute with no timestamp or metadata.
    pub fn new(value: impl Into<AttrValue>) -> Self {
        Attribute {
            value: value.into(),
            observed_at_ms: None,
            metadata: BTreeMap::new(),
        }
    }

    /// Sets the observation timestamp (builder style).
    pub fn observed_at(mut self, ms: u64) -> Self {
        self.observed_at_ms = Some(ms);
        self
    }

    /// Adds one metadata entry (builder style).
    pub fn with_meta(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.metadata.insert(key.into(), value.into());
        self
    }

    /// Encodes as a JSON object `{value, observedAt?, metadata?}`.
    pub fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("value".to_owned(), self.value.to_json());
        if let Some(ts) = self.observed_at_ms {
            obj.insert(
                "observedAt".to_owned(),
                Json::Number(observed_at_number(ts)),
            );
        }
        if !self.metadata.is_empty() {
            obj.insert(
                "metadata".to_owned(),
                Json::Object(
                    self.metadata
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::String(v.clone())))
                        .collect(),
                ),
            );
        }
        Json::Object(obj)
    }

    /// Decodes from the JSON produced by [`Attribute::to_json`]. Clones `j`
    /// and consumes the clone; a caller that owns the tree should call
    /// [`Attribute::from_json_owned`].
    ///
    /// # Errors
    /// Returns [`EntityCodecError`] if the `value` field is missing or
    /// metadata values are not strings.
    pub fn from_json(j: &Json) -> Result<Attribute, EntityCodecError> {
        Attribute::from_json_owned(j.clone())
    }

    /// Consuming [`Attribute::from_json`]: the value and the metadata
    /// strings move out of `j`.
    ///
    /// # Errors
    /// As [`Attribute::from_json`].
    pub fn from_json_owned(j: Json) -> Result<Attribute, EntityCodecError> {
        let mut fields = match j {
            Json::Object(fields) => fields,
            _ => BTreeMap::new(),
        };
        let observed_at_ms = fields.get("observedAt").and_then(observed_at_ms);
        Attribute::from_fields(
            fields.remove("value"),
            observed_at_ms,
            fields.remove("metadata"),
        )
    }

    /// The decoder proper, over the (last) value of each known field:
    /// shared by the tree decoder above and [`Entity::read_compact`].
    fn from_fields(
        value: Option<Json>,
        observed_at_ms: Option<u64>,
        metadata: Option<Json>,
    ) -> Result<Attribute, EntityCodecError> {
        let value = value.ok_or_else(|| EntityCodecError::missing("value"))?;
        let mut strings = BTreeMap::new();
        if let Some(Json::Object(meta)) = metadata {
            for (k, v) in meta {
                let Json::String(s) = v else {
                    return Err(EntityCodecError::bad("metadata values must be strings"));
                };
                strings.insert(k, s);
            }
        }
        Ok(Attribute {
            value: AttrValue::from_json_owned(value),
            observed_at_ms,
            metadata: strings,
        })
    }

    /// Reads the attribute at the parser's cursor, `depth` containers deep,
    /// as [`Attribute::from_json_owned`] would decode its tree: the last of
    /// a repeated field wins, unknown fields are skipped. A malformed
    /// document is the outer error; a well-formed one that is not an
    /// attribute is the inner one, so a later duplicate can replace it.
    fn read(
        p: &mut Parser<'_>,
        depth: usize,
    ) -> Result<Result<Attribute, EntityCodecError>, ParseJsonError> {
        if p.peek() != Some(b'{') {
            p.value(depth)?;
            return Ok(Err(EntityCodecError::missing("value")));
        }
        let (mut value, mut observed, mut metadata) = (None, None, None);
        p.members(depth, |p, key| {
            let field = p.value(depth + 1)?;
            match &*key {
                "value" => value = Some(field),
                "observedAt" => observed = observed_at_ms(&field),
                "metadata" => metadata = Some(field),
                _ => {}
            }
            Ok(())
        })?;
        Ok(Attribute::from_fields(value, observed, metadata))
    }

    /// Streams the bytes of `self.to_json()`: keys in the tree's sorted
    /// order (`metadata`, `observedAt`, `value`), absent ones omitted.
    fn write_compact(&self, out: &mut String) {
        out.push('{');
        if !self.metadata.is_empty() {
            out.push_str("\"metadata\":{");
            for (i, (k, v)) in self.metadata.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_escaped(v, out);
            }
            out.push_str("},");
        }
        if let Some(ts) = self.observed_at_ms {
            out.push_str("\"observedAt\":");
            write_number(observed_at_number(ts), out);
            out.push(',');
        }
        out.push_str("\"value\":");
        self.value.write_compact(out);
        out.push('}');
    }
}

/// `observedAt` from the wire, if it is a number.
#[expect(
    clippy::as_conversions,
    reason = "`as` from f64 saturates, never panics: an out-of-range observedAt clamps instead of killing ingest"
)]
fn observed_at_ms(j: &Json) -> Option<u64> {
    j.as_f64().map(|f| f as u64)
}

/// `observedAt` on the wire: sim epoch-milliseconds as a JSON number.
#[expect(
    clippy::as_conversions,
    reason = "exact below 2^53 ms, far beyond any sim horizon"
)]
fn observed_at_number(ts: u64) -> f64 {
    ts as f64
}

/// An NGSI-like context entity: id + type + attributes, kept in name order.
///
/// # Example
/// ```
/// use swamp_codec::ngsi::{Entity, AttrValue};
/// let mut pivot = Entity::new("urn:swamp:pivot:1", "CenterPivot");
/// pivot.set("angle_deg", AttrValue::Number(123.0));
/// assert_eq!(pivot.number("angle_deg"), Some(123.0));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Entity {
    id: EntityId,
    entity_type: String,
    attributes: Attributes,
}

/// An entity's attributes: one vector sorted by name, names unique, looked
/// up by binary search. An entity carries one to three attributes, which a
/// vector holds in about a third of the bytes of the eleven-slot node a
/// `BTreeMap` allocates on its first insert, in the same order and with
/// the same equality; `Debug` prints them as a map.
#[derive(Clone, Default, PartialEq)]
struct Attributes(Vec<(String, Attribute)>);

impl Attributes {
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.as_str().cmp(name))
    }

    fn get(&self, name: &str) -> Option<&Attribute> {
        self.find(name)
            .ok()
            .and_then(|i| self.0.get(i))
            .map(|(_, a)| a)
    }

    /// Inserts or replaces; a replaced attribute keeps its stored name.
    fn insert(&mut self, name: String, attr: Attribute) {
        match self.find(&name) {
            Ok(i) => {
                if let Some((_, slot)) = self.0.get_mut(i) {
                    *slot = attr;
                }
            }
            Err(i) => self.0.insert(i, (name, attr)),
        }
    }

    fn remove(&mut self, name: &str) -> Option<Attribute> {
        self.find(name).ok().map(|i| self.0.remove(i).1)
    }
}

impl fmt::Debug for Attributes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.0.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

impl Entity {
    /// Creates an entity with no attributes.
    ///
    /// # Panics
    /// Panics if `id` is not a valid [`EntityId`].
    pub fn new(id: impl Into<EntityId>, entity_type: impl Into<String>) -> Self {
        Entity {
            id: id.into(),
            entity_type: entity_type.into(),
            attributes: Attributes::default(),
        }
    }

    /// The entity id.
    pub fn id(&self) -> &EntityId {
        &self.id
    }

    /// The entity type (e.g. `"SoilProbe"`).
    pub fn entity_type(&self) -> &str {
        &self.entity_type
    }

    /// Sets (or replaces) an attribute with a bare value.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<AttrValue>) {
        self.attributes
            .insert(name.into(), Attribute::new(value.into()));
    }

    /// Sets (or replaces) a full attribute (value + timestamp + metadata).
    pub fn set_attribute(&mut self, name: impl Into<String>, attr: Attribute) {
        self.attributes.insert(name.into(), attr);
    }

    /// Removes an attribute, returning it if present.
    pub fn remove(&mut self, name: &str) -> Option<Attribute> {
        self.attributes.remove(name)
    }

    /// Looks up an attribute.
    pub fn attribute(&self, name: &str) -> Option<&Attribute> {
        self.attributes.get(name)
    }

    /// Shortcut: numeric value of an attribute.
    pub fn number(&self, name: &str) -> Option<f64> {
        self.attributes.get(name).and_then(|a| a.value.as_number())
    }

    /// Shortcut: text value of an attribute.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.attributes.get(name).and_then(|a| a.value.as_text())
    }

    /// Shortcut: flag value of an attribute.
    pub fn flag(&self, name: &str) -> Option<bool> {
        self.attributes.get(name).and_then(|a| a.value.as_flag())
    }

    /// Iterates attributes in name order.
    pub fn attributes(&self) -> impl Iterator<Item = (&str, &Attribute)> {
        self.attributes.0.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attributes.0.len()
    }

    /// Whether the entity has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attributes.0.is_empty()
    }

    /// Merges another entity's attributes into this one (NGSI "update":
    /// incoming attributes overwrite same-named existing ones; the id and
    /// the type stay this entity's). `other`'s attributes move in, so
    /// overwriting an attribute this entity already has allocates nothing
    /// (the entity keeps its own name string); a caller that keeps `other`
    /// passes a clone.
    ///
    /// # Panics
    /// Panics in debug builds if ids differ — merging across entities is a
    /// logic error.
    pub fn merge_owned(&mut self, other: Entity) {
        debug_assert_eq!(self.id, other.id, "merge_owned across different entities");
        for (k, v) in other.attributes.0 {
            self.attributes.insert(k, v);
        }
    }

    /// Encodes as the NGSI-like JSON wire form.
    pub fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("id".to_owned(), Json::String(self.id.as_str().to_owned()));
        obj.insert("type".to_owned(), Json::String(self.entity_type.clone()));
        let attrs: BTreeMap<String, Json> = self
            .attributes()
            .map(|(k, v)| (k.to_owned(), v.to_json()))
            .collect();
        obj.insert("attrs".to_owned(), Json::Object(attrs));
        Json::Object(obj)
    }

    /// Decodes from the JSON produced by [`Entity::to_json`]. This borrowing
    /// form costs a deep clone of the whole tree on top of the decode (it
    /// clones `j` and consumes the clone); a caller that owns the tree and
    /// is done with it should call [`Entity::from_json_owned`], and one
    /// that holds the bytes [`Entity::read_compact`], as the platform's
    /// ingest path does.
    ///
    /// # Errors
    /// Returns [`EntityCodecError`] if required fields are missing or of the
    /// wrong shape.
    pub fn from_json(j: &Json) -> Result<Entity, EntityCodecError> {
        Entity::from_json_owned(j.clone())
    }

    /// Consuming [`Entity::from_json`] — the decoder itself: the id, the
    /// type, attribute names and text values move out of the parsed tree
    /// instead of being copied out of a tree the caller then drops.
    ///
    /// # Errors
    /// As [`Entity::from_json`].
    pub fn from_json_owned(j: Json) -> Result<Entity, EntityCodecError> {
        let mut fields = match j {
            Json::Object(fields) => fields,
            _ => BTreeMap::new(),
        };
        let (id, entity_type) = id_and_type(fields.remove("id"), fields.remove("type"))?;
        let mut attributes = Attributes::default();
        if let Some(Json::Object(attrs)) = fields.remove("attrs") {
            for (name, aj) in attrs {
                attributes.insert(name, Attribute::from_json_owned(aj)?);
            }
        }
        Ok(Entity {
            id,
            entity_type,
            attributes,
        })
    }

    /// Decodes the wire form straight from its bytes — the dual of
    /// [`Entity::write_compact`], and the decoder of the platform's ingest
    /// path. It accepts exactly the byte strings that `from_utf8`,
    /// [`Json::parse`] and [`Entity::from_json_owned`] accept together,
    /// and returns the same entity, without building the tree: it walks
    /// the entity and attribute objects with the JSON parser's own lexer,
    /// and parses only attribute values (and unknown fields) as values.
    /// As in the tree, the last of a repeated key wins — an invalid
    /// attribute a later duplicate replaces is no error — a non-object
    /// `attrs` is ignored, and [`crate::json::MAX_DEPTH`] holds.
    ///
    /// ```
    /// use swamp_codec::ngsi::Entity;
    /// let mut probe = Entity::new("urn:p1", "SoilProbe");
    /// probe.set("moisture_vwc", 0.25);
    /// let mut wire = String::new();
    /// probe.write_compact(&mut wire);
    /// assert_eq!(Entity::read_compact(wire.as_bytes()), Ok(probe));
    /// ```
    ///
    /// # Errors
    /// As [`Entity::from_json`], and for bytes that are not UTF-8 or not
    /// one JSON document.
    pub fn read_compact(bytes: &[u8]) -> Result<Entity, EntityCodecError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| EntityCodecError::bad("payload is not UTF-8"))?;
        let mut p = Parser::new(text);
        p.skip_ws();
        if p.peek() != Some(b'{') {
            // Whatever else it is, a non-object has no `id`.
            return Err(EntityCodecError::missing("id"));
        }
        let (mut id, mut entity_type) = (None, None);
        let mut attributes = Attributes::default();
        // The attributes whose last value failed to decode, by name.
        let mut failed = BTreeMap::new();
        p.members(0, |p, key| {
            match &*key {
                "id" => id = Some(p.value(1)?),
                "type" => entity_type = Some(p.value(1)?),
                "attrs" => {
                    attributes.0.clear();
                    failed.clear();
                    if p.peek() != Some(b'{') {
                        p.value(1)?;
                        return Ok(());
                    }
                    p.members(1, |p, name| {
                        match Attribute::read(p, 2)? {
                            Ok(attr) => {
                                failed.remove(&*name);
                                attributes.insert(name.into_owned(), attr);
                            }
                            Err(e) => {
                                attributes.remove(&name);
                                failed.insert(name.into_owned(), e);
                            }
                        }
                        Ok(())
                    })?;
                }
                _ => {
                    p.value(1)?;
                }
            }
            Ok(())
        })
        .and_then(|()| p.finish())
        .map_err(EntityCodecError::parse)?;
        let (id, entity_type) = id_and_type(id, entity_type)?;
        if let Some(e) = failed.into_values().next() {
            return Err(e);
        }
        Ok(Entity {
            id,
            entity_type,
            attributes,
        })
    }

    /// Appends the wire form to `out`: byte for byte what
    /// `self.to_json().to_compact_string()` returns, without building the
    /// tree. This is the serialiser of the platform's write path (sealed
    /// device frames, fog→cloud sync payloads); keys appear in the tree's
    /// sorted order (`attrs`, `id`, `type`; attribute names ascending).
    ///
    /// ```
    /// use swamp_codec::ngsi::Entity;
    /// let mut probe = Entity::new("urn:p1", "SoilProbe");
    /// probe.set("moisture_vwc", 0.25);
    /// let mut wire = String::new();
    /// probe.write_compact(&mut wire);
    /// assert_eq!(wire, probe.to_json().to_compact_string());
    /// ```
    pub fn write_compact(&self, out: &mut String) {
        out.push_str("{\"attrs\":{");
        for (i, (name, attr)) in self.attributes().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(name, out);
            out.push(':');
            attr.write_compact(out);
        }
        out.push_str("},\"id\":");
        write_escaped(self.id.as_str(), out);
        out.push_str(",\"type\":");
        write_escaped(&self.entity_type, out);
        out.push('}');
    }
}

/// The (last) `id` and `type` fields of an entity, checked.
fn id_and_type(
    id: Option<Json>,
    entity_type: Option<Json>,
) -> Result<(EntityId, String), EntityCodecError> {
    let Some(Json::String(id)) = id else {
        return Err(EntityCodecError::missing("id"));
    };
    let id = EntityId::try_new(id).map_err(|e| EntityCodecError::bad(&e.to_string()))?;
    let Some(Json::String(entity_type)) = entity_type else {
        return Err(EntityCodecError::missing("type"));
    };
    Ok((id, entity_type))
}

/// Error from [`Entity::from_json`] / [`Attribute::from_json`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntityCodecError(String);

impl EntityCodecError {
    fn missing(field: &str) -> Self {
        EntityCodecError(format!("missing field '{field}'"))
    }
    fn bad(msg: &str) -> Self {
        EntityCodecError(msg.to_owned())
    }
    fn parse(e: ParseJsonError) -> Self {
        EntityCodecError(e.to_string())
    }
}

impl fmt::Display for EntityCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid entity encoding: {}", self.0)
    }
}
impl std::error::Error for EntityCodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entity() -> Entity {
        let mut e = Entity::new("urn:swamp:probe:1", "SoilProbe");
        e.set("moisture_vwc", 0.27);
        e.set_attribute(
            "temperature_c",
            Attribute::new(21.5)
                .observed_at(3_600_000)
                .with_meta("unit", "celsius")
                .with_meta("depth_cm", "30"),
        );
        e.set("location", AttrValue::GeoPoint(-12.15, -45.0));
        e.set("zones", vec![1.0, 0.8, 0.6]);
        e.set("status", "active");
        e.set("armed", true);
        e
    }

    #[test]
    fn entity_json_roundtrip() {
        let e = sample_entity();
        let wire = e.to_json().to_compact_string();
        let parsed = Json::parse(&wire).unwrap();
        let back = Entity::from_json(&parsed).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn accessors_work() {
        let e = sample_entity();
        assert_eq!(e.number("moisture_vwc"), Some(0.27));
        assert_eq!(e.text("status"), Some("active"));
        assert_eq!(e.flag("armed"), Some(true));
        assert_eq!(
            e.attribute("location").unwrap().value.as_geo(),
            Some((-12.15, -45.0))
        );
        assert_eq!(
            e.attribute("zones").unwrap().value.as_number_list(),
            Some(&[1.0, 0.8, 0.6][..])
        );
        assert_eq!(e.number("missing"), None);
        assert_eq!(e.number("status"), None); // wrong type
        assert_eq!(e.len(), 6);
        assert!(!e.is_empty());
    }

    #[test]
    fn attribute_metadata_roundtrips() {
        let e = sample_entity();
        let t = e.attribute("temperature_c").unwrap();
        assert_eq!(t.observed_at_ms, Some(3_600_000));
        assert_eq!(t.metadata.get("unit").map(String::as_str), Some("celsius"));

        let j = t.to_json();
        let back = Attribute::from_json(&j).unwrap();
        assert_eq!(&back, t);
    }

    #[test]
    fn merge_overwrites_and_adds() {
        let mut a = Entity::new("urn:x", "T");
        a.set("k1", 1.0);
        a.set("k2", 2.0);
        let mut b = Entity::new("urn:x", "T");
        b.set("k2", 20.0);
        b.set("k3", 3.0);
        a.merge_owned(b);
        assert_eq!(a.number("k1"), Some(1.0));
        assert_eq!(a.number("k2"), Some(20.0));
        assert_eq!(a.number("k3"), Some(3.0));
    }

    #[test]
    fn remove_returns_attribute() {
        let mut e = sample_entity();
        let removed = e.remove("armed").unwrap();
        assert_eq!(removed.value.as_flag(), Some(true));
        assert!(e.remove("armed").is_none());
    }

    #[test]
    fn entity_id_validation() {
        assert!(EntityId::try_new("ok").is_ok());
        assert!(EntityId::try_new("").is_err());
        assert!(EntityId::try_new(" pad").is_err());
        assert!(EntityId::try_new("pad ").is_err());
        let err = EntityId::try_new("").unwrap_err();
        assert!(err.to_string().contains("non-empty"));
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(Entity::from_json(&Json::parse(r#"{"type":"T"}"#).unwrap()).is_err());
        assert!(Entity::from_json(&Json::parse(r#"{"id":"x"}"#).unwrap()).is_err());
        assert!(Entity::from_json(&Json::parse(r#"{"id":"","type":"T"}"#).unwrap()).is_err());
        // Attribute without a value field.
        let bad = Json::parse(r#"{"id":"x","type":"T","attrs":{"a":{}}}"#).unwrap();
        assert!(Entity::from_json(&bad).is_err());
        // Non-string metadata.
        let bad =
            Json::parse(r#"{"id":"x","type":"T","attrs":{"a":{"value":1,"metadata":{"u":5}}}}"#)
                .unwrap();
        assert!(Entity::from_json(&bad).is_err());
    }

    #[test]
    fn attr_value_json_inference() {
        assert_eq!(
            AttrValue::from_json(&Json::Number(1.5)),
            AttrValue::Number(1.5)
        );
        assert_eq!(
            AttrValue::from_json(&Json::parse("[1,2]").unwrap()),
            AttrValue::NumberList(vec![1.0, 2.0])
        );
        // Mixed array stays structured.
        let mixed = Json::parse(r#"[1,"a"]"#).unwrap();
        assert_eq!(
            AttrValue::from_json(&mixed),
            AttrValue::Structured(mixed.clone())
        );
        // geo:point object decodes to GeoPoint.
        let geo = AttrValue::GeoPoint(1.0, 2.0);
        assert_eq!(AttrValue::from_json(&geo.to_json()), geo);
    }

    #[test]
    fn structured_roundtrip() {
        let j = Json::parse(r#"{"nested":{"deep":[true,null]}}"#).unwrap();
        let v = AttrValue::Structured(j.clone());
        assert_eq!(AttrValue::from_json(&v.to_json()), v);
    }
}
