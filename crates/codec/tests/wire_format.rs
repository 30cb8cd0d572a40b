//! Pins the NGSI wire format now that two writers produce it.
//!
//! [`Entity::write_compact`] is the serialiser of the platform's write
//! path; [`Entity::to_json`] + `to_compact_string` is the tree writer it
//! replaced there. A seeded generator holds them byte-identical over every
//! [`AttrValue`] variant and every awkward input (signed zero, non-finite
//! numbers, control characters, quotes, non-ASCII, metadata, timestamps),
//! and literal golden strings pin the bytes themselves — so the two
//! writers cannot drift apart, and cannot drift together either.
//!
//! The same generator drives the JSON layer's own properties: arbitrary
//! value trees survive both writers, and the parser returns — `Ok` or
//! `Err`, never a panic — on token soup and on damaged documents.

use swamp_codec::json::Json;
use swamp_codec::ngsi::{AttrValue, Attribute, Entity};

/// The seeded generator behind the loop below. The codec is substrate —
/// the layering rule lets it depend on no workspace crate, `swamp-sim`
/// and its `SimRng` included — so the test carries its own SplitMix64.
struct SimRng(u64);

impl SimRng {
    fn seed_from(seed: u64) -> SimRng {
        SimRng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (modulo bias is irrelevant to coverage).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn chance(&mut self, p: f64) -> bool {
        self.uniform_range(0.0, 1.0) < p
    }

    fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

fn compact(e: &Entity) -> String {
    let mut out = String::new();
    e.write_compact(&mut out);
    out
}

/// Characters the escaper and the parser each have to get right.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', ' ', '_', ':', '/', '"', '\\', '\n', '\r', '\t', '\u{08}', '\u{0C}', '\u{01}',
    '\u{1f}', '\u{7f}', 'é', 'ß', '稻', '💧',
];

fn text(rng: &mut SimRng, max_len: u64) -> String {
    (0..rng.below(max_len + 1))
        .map(|_| *rng.pick(ALPHABET))
        .collect()
}

/// A number, sometimes one of the values JSON cannot carry exactly.
/// Sets `lossy` when the value will not decode back to itself.
fn number(rng: &mut SimRng, lossy: &mut bool) -> f64 {
    match rng.below(12) {
        0 => -0.0,
        1 => 0.0,
        2 => {
            *lossy = true;
            *rng.pick(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY])
        }
        3 => rng.below(2_000_001) as f64 - 1_000_000.0,
        4 => rng.uniform_range(-1e-9, 1e-9),
        5 => rng.uniform_range(-1e18, 1e18),
        _ => rng.uniform_range(-100.0, 100.0),
    }
}

fn value(rng: &mut SimRng, lossy: &mut bool) -> AttrValue {
    match rng.below(6) {
        0 => AttrValue::Number(number(rng, lossy)),
        1 => AttrValue::Text(text(rng, 12)),
        2 => AttrValue::Flag(rng.chance(0.5)),
        3 => AttrValue::GeoPoint(number(rng, lossy), number(rng, lossy)),
        4 => AttrValue::NumberList((0..rng.below(5)).map(|_| number(rng, lossy)).collect()),
        _ => {
            // Shapes that decode back to `Structured`: a mixed array, or
            // an object that is not a geo point.
            let n = Json::Number(number(rng, lossy));
            let payload = if rng.chance(0.5) {
                Json::Array(vec![n, Json::String(text(rng, 6)), Json::Null])
            } else {
                Json::object([
                    (text(rng, 4), n),
                    ("nested".to_owned(), Json::Array(vec![Json::Bool(true)])),
                ])
            };
            AttrValue::Structured(payload)
        }
    }
}

/// One generated entity and whether it must decode back to itself.
fn entity(rng: &mut SimRng) -> (Entity, bool) {
    let mut lossy = false;
    // Ids may not carry surrounding whitespace; everything else is fair.
    let mut e = Entity::new(format!("urn:{}x", text(rng, 8)), text(rng, 8));
    for _ in 0..rng.below(5) {
        let mut attr = Attribute::new(value(rng, &mut lossy));
        if rng.chance(0.4) {
            attr = attr.observed_at(rng.below(1 << 53));
        }
        for _ in 0..rng.below(3) {
            attr = attr.with_meta(text(rng, 6), text(rng, 6));
        }
        e.set_attribute(text(rng, 8), attr);
    }
    (e, !lossy)
}

#[test]
fn streaming_writer_matches_tree_writer_and_round_trips() {
    let mut rng = SimRng::seed_from(0x7769_7265); // "wire"
    let mut variants = [0u32; 6];
    let mut exact = 0;
    for _ in 0..4_000 {
        let (e, round_trips) = entity(&mut rng);
        for (_, a) in e.attributes() {
            variants[match a.value {
                AttrValue::Number(_) => 0,
                AttrValue::Text(_) => 1,
                AttrValue::Flag(_) => 2,
                AttrValue::GeoPoint(..) => 3,
                AttrValue::NumberList(_) => 4,
                AttrValue::Structured(_) => 5,
            }] += 1;
        }
        let wire = compact(&e);
        assert_eq!(wire, e.to_json().to_compact_string());

        let tree = Json::parse(&wire).expect("the wire form is valid JSON");
        let borrowed = Entity::from_json(&tree).expect("the wire form decodes");
        let owned = Entity::from_json_owned(tree).expect("the wire form decodes");
        // NaN never equals itself; compare the decoders by their bytes.
        assert_eq!(compact(&owned), compact(&borrowed));
        if round_trips {
            assert_eq!(owned, e);
            exact += 1;
        }
    }
    assert!(variants.iter().all(|&n| n > 500), "{variants:?}");
    assert!(
        exact > 2_000,
        "only {exact} entities were exactly decodable"
    );
}

/// A JSON value tree at most `depth` containers deep, finite numbers only
/// (JSON has no NaN/inf; the writers emit `null` for them).
fn json(rng: &mut SimRng, depth: u32) -> Json {
    match rng.below(if depth == 0 { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(0.5)),
        2 => Json::Number(rng.uniform_range(-1e12, 1e12)),
        3 => Json::String(text(rng, 12)),
        4 => Json::Array((0..rng.below(6)).map(|_| json(rng, depth - 1)).collect()),
        _ => Json::object((0..rng.below(6)).map(|_| (text(rng, 8), json(rng, depth - 1)))),
    }
}

#[test]
fn json_values_round_trip_through_both_writers() {
    let mut rng = SimRng::seed_from(0x6a73_6f6e); // "json"
    for _ in 0..2_000 {
        let v = json(&mut rng, 4);
        assert_eq!(Json::parse(&v.to_compact_string()).as_ref(), Ok(&v));
        assert_eq!(Json::parse(&v.to_pretty_string()).as_ref(), Ok(&v));
    }
}

/// Pieces a JSON parser has a branch for, whole and broken.
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\ud83d", "\\udca7", "\\n", "\\x", "00e9",
    "-", "0", "17", ".", "e", "E+", "1e999", "true", "fals", "null", "nul", " ", "\n", "\t", "a",
    "é", "💧", "\u{0}", "\u{1f}",
];

#[test]
fn parser_never_panics() {
    let mut rng = SimRng::seed_from(0x736f_7570); // "soup"
    let mut accepted = 0;
    for _ in 0..20_000 {
        let soup: String = (0..rng.below(24)).map(|_| *rng.pick(TOKENS)).collect();
        accepted += u32::from(Json::parse(&soup).is_ok());
    }
    assert!(
        accepted > 100,
        "only {accepted} soups parsed: the alphabet is off"
    );
}

#[test]
fn parser_never_panics_on_bytes() {
    let mut rng = SimRng::seed_from(0x6279_7465); // "byte"
    let mut parsed = 0;
    for _ in 0..4_000 {
        // A valid document, then cut short, or with a few bytes overwritten.
        let mut bytes = json(&mut rng, 3).to_compact_string().into_bytes();
        bytes.truncate(1 + rng.below(bytes.len() as u64) as usize);
        for _ in 0..rng.below(3) {
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] = rng.next_u64() as u8;
        }
        if let Ok(s) = std::str::from_utf8(&bytes) {
            parsed += u32::from(Json::parse(s).is_ok());
        }
    }
    assert!(parsed > 0, "no damaged document stayed parseable");
}

#[test]
fn consuming_and_borrowing_decoders_refuse_the_same_documents() {
    for bad in [
        r#"[]"#,
        r#"{"type":"T"}"#,
        r#"{"id":7,"type":"T"}"#,
        r#"{"id":" padded","type":"T"}"#,
        r#"{"id":"x"}"#,
        r#"{"id":"x","type":"T","attrs":{"a":{}}}"#,
        r#"{"id":"x","type":"T","attrs":{"a":7}}"#,
        r#"{"id":"x","type":"T","attrs":{"a":{"value":1,"metadata":{"u":5}}}}"#,
    ] {
        let tree = Json::parse(bad).unwrap();
        let borrowed = Entity::from_json(&tree).unwrap_err();
        assert_eq!(
            Entity::from_json_owned(tree).unwrap_err(),
            borrowed,
            "{bad}"
        );
    }
    // Fields of the wrong shape that the decoder tolerates, it tolerates
    // on both paths: non-object `attrs`/`metadata`, non-numeric timestamp.
    let odd = r#"{"id":"x","type":"T","attrs":{"a":{"value":1,"metadata":3,"observedAt":"t"}}}"#;
    let tree = Json::parse(odd).unwrap();
    let e = Entity::from_json_owned(tree.clone()).unwrap();
    assert_eq!(e, Entity::from_json(&tree).unwrap());
    assert_eq!(e.attribute("a"), Some(&Attribute::new(1.0)));
    let no_attrs = Json::parse(r#"{"id":"x","type":"T","attrs":[1]}"#).unwrap();
    assert!(Entity::from_json_owned(no_attrs).unwrap().is_empty());
}

/// One literal per [`AttrValue`] variant, plus the attribute envelope.
#[test]
fn golden_wire_strings() {
    let golden = |name: &str, attr: Attribute, expect: &str| {
        let mut e = Entity::new("urn:swamp:device:probe-7", "SoilProbe");
        e.set_attribute(name, attr);
        assert_eq!(compact(&e), expect, "{name}");
        assert_eq!(e.to_json().to_compact_string(), expect, "{name} (tree)");
    };
    golden(
        "moisture_vwc",
        Attribute::new(0.2575),
        r#"{"attrs":{"moisture_vwc":{"value":0.2575}},"id":"urn:swamp:device:probe-7","type":"SoilProbe"}"#,
    );
    golden(
        "status",
        Attribute::new("say \"hi\"\\\n\u{01}é💧"),
        r#"{"attrs":{"status":{"value":"say \"hi\"\\\n\u0001é💧"}},"id":"urn:swamp:device:probe-7","type":"SoilProbe"}"#,
    );
    golden(
        "armed",
        Attribute::new(true),
        r#"{"attrs":{"armed":{"value":true}},"id":"urn:swamp:device:probe-7","type":"SoilProbe"}"#,
    );
    golden(
        "location",
        Attribute::new(AttrValue::GeoPoint(-12.15, -45.0)),
        r#"{"attrs":{"location":{"value":{"lat":-12.15,"lon":-45,"type":"geo:point"}}},"id":"urn:swamp:device:probe-7","type":"SoilProbe"}"#,
    );
    golden(
        "zones",
        Attribute::new(vec![1.0, -0.0, f64::NAN, 1e21, 2.5e-7]),
        r#"{"attrs":{"zones":{"value":[1,0,null,1000000000000000000000,0.00000025]}},"id":"urn:swamp:device:probe-7","type":"SoilProbe"}"#,
    );
    golden(
        "plan",
        Attribute::new(AttrValue::Structured(
            Json::parse(r#"{"z":[true,null],"a":"b"}"#).unwrap(),
        )),
        r#"{"attrs":{"plan":{"value":{"a":"b","z":[true,null]}}},"id":"urn:swamp:device:probe-7","type":"SoilProbe"}"#,
    );
    golden(
        "temperature_c",
        Attribute::new(21.5)
            .observed_at(3_600_000)
            .with_meta("unit", "celsius")
            .with_meta("depth_cm", "30"),
        r#"{"attrs":{"temperature_c":{"metadata":{"depth_cm":"30","unit":"celsius"},"observedAt":3600000,"value":21.5}},"id":"urn:swamp:device:probe-7","type":"SoilProbe"}"#,
    );

    // The shape the fleet workloads send: two attributes, names ascending.
    let mut e = Entity::new("urn:swamp:device:probe-7", "SoilProbe");
    e.set("seq", 3.0);
    e.set("moisture_vwc", 0.25);
    assert_eq!(
        compact(&e),
        r#"{"attrs":{"moisture_vwc":{"value":0.25},"seq":{"value":3}},"id":"urn:swamp:device:probe-7","type":"SoilProbe"}"#
    );
    // Appending, not overwriting: the caller owns (and clears) the buffer.
    let mut out = String::from("prefix:");
    Entity::new("urn:x", "T").write_compact(&mut out);
    assert_eq!(out, r#"prefix:{"attrs":{},"id":"urn:x","type":"T"}"#);
}
