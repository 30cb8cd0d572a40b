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
//! Decoding has two paths too: [`Entity::read_compact`] reads the bytes
//! straight into an entity on the platform's ingest path, and
//! `from_utf8` → [`Json::parse`] → [`Entity::from_json_owned`] is the tree
//! path it replaced there. The same generator holds them equal — `Ok` and
//! `Err` alike, and the same entity when `Ok` — on the canonical wire, on
//! the same entities written with whitespace, reordered and escaped keys
//! and invalid decoy duplicates, on every truncation and on seeded byte
//! flips, and on hand-written edge cases.
//!
//! An entity keeps its attributes in a name-sorted vector; a seeded model
//! test holds it to a `BTreeMap` reference over random edits and
//! duplicate-key decodes: order, lookups, length, equality, wire bytes and
//! `Debug` output alike.
//!
//! The same generator drives the JSON layer's own properties: arbitrary
//! value trees survive both writers, and the parser returns — `Ok` or
//! `Err`, never a panic — on token soup and on damaged documents.

use std::collections::BTreeMap;
use std::fmt;

use swamp_codec::json::{Json, MAX_DEPTH};
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
        // A decoded entity holds no NaN (the wire carries `null`), so the
        // reader is held to equality.
        assert_eq!(Entity::read_compact(wire.as_bytes()), Ok(owned.clone()));
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

/// The tree path the reader must match: `from_utf8`, then [`Json::parse`],
/// then [`Entity::from_json_owned`].
fn tree_decode(bytes: &[u8]) -> Option<Entity> {
    let text = std::str::from_utf8(bytes).ok()?;
    Entity::from_json_owned(Json::parse(text).ok()?).ok()
}

/// Asserts that [`Entity::read_compact`] and the tree path agree on
/// `bytes` — both refuse it, or both return the same entity — and
/// returns that entity.
fn decoders_agree(bytes: &[u8]) -> Option<Entity> {
    let tree = tree_decode(bytes);
    let read = Entity::read_compact(bytes);
    assert_eq!(
        read.as_ref().ok(),
        tree.as_ref(),
        "{:?}: the reader said {read:?}",
        String::from_utf8_lossy(bytes)
    );
    tree
}

/// Whitespace the grammar allows between two tokens, often none.
fn ws(rng: &mut SimRng, out: &mut String) {
    while rng.chance(0.25) {
        out.push(*rng.pick(&[' ', '\n', '\t', '\r']));
    }
}

/// `s` as a JSON string with escapes the canonical writer never emits:
/// `\/`, and `\uXXXX` (in either case, as a surrogate pair beyond the
/// BMP) for any character.
fn noisy_string(rng: &mut SimRng, s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '/' if rng.chance(0.5) => out.push_str("\\/"),
            c if u32::from(c) < 0x20 || rng.chance(0.2) => {
                for unit in c.encode_utf16(&mut [0u16; 2]) {
                    if rng.chance(0.5) {
                        out.push_str(&format!("\\u{unit:04x}"));
                    } else {
                        out.push_str(&format!("\\u{unit:04X}"));
                    }
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Values that, in place of some member, would make an entity invalid or
/// different: each replaced by the real member written after it.
const DECOYS: &[&str] = &[
    "{}",
    "7",
    "null",
    "\"t\"",
    "\" padded\"",
    "[1,\"a\"]",
    "{\"u\":5}",
    "{\"a\":{}}",
    "{\"b\":{\"value\":2}}",
    "{\"metadata\":{\"u\":5},\"value\":1}",
];

/// Writes `j` as a non-canonical document that decodes to the same value:
/// whitespace between tokens, members in random order, noisy escapes,
/// exponent-form numbers, a decoy copy before some members, and unknown
/// members where the entity decoder skips them (`depth` counts objects
/// from the entity: 0 is the entity, 2 an attribute).
fn noisy(rng: &mut SimRng, j: &Json, depth: u32, out: &mut String) {
    match j {
        Json::Object(map) => {
            let mut members: Vec<(&str, Option<&Json>)> = Vec::new();
            for (k, v) in map {
                if rng.chance(0.15) {
                    members.push((k, None));
                }
                members.push((k, Some(v)));
            }
            // Shuffle, keeping each decoy ahead of its real member.
            for i in (1..members.len()).rev() {
                let at = rng.below(i as u64 + 1) as usize;
                members.swap(i, at);
            }
            for i in 0..members.len() {
                if members[i].1.is_none() {
                    let key = members[i].0;
                    let real = members.iter().position(|m| m.0 == key && m.1.is_some());
                    if let Some(real) = real.filter(|&r| r < i) {
                        members.swap(i, real);
                    }
                }
            }
            let unknown = Json::String(text(rng, 4));
            if (depth == 0 || depth == 2) && rng.chance(0.3) {
                let at = rng.below(members.len() as u64 + 1) as usize;
                members.insert(at, ("zz-unknown", Some(&unknown)));
            }
            out.push('{');
            for (i, (k, v)) in members.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                noisy_string(rng, k, out);
                ws(rng, out);
                out.push(':');
                ws(rng, out);
                match v {
                    Some(v) => noisy(rng, v, depth + 1, out),
                    None => {
                        let decoy: &&str = rng.pick(DECOYS);
                        out.push_str(decoy);
                    }
                }
                ws(rng, out);
            }
            out.push('}');
        }
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                noisy(rng, item, depth + 1, out);
                ws(rng, out);
            }
            out.push(']');
        }
        Json::String(s) => noisy_string(rng, s, out),
        Json::Number(n) if n.is_finite() && rng.chance(0.3) => out.push_str(&format!("{n:e}")),
        other => out.push_str(&other.to_compact_string()),
    }
}

#[test]
fn reader_matches_the_tree_decoder_on_noisy_and_damaged_input() {
    let mut rng = SimRng::seed_from(0x7265_6164); // "read"
    let (mut noisy_ok, mut damaged_ok, mut damaged) = (0, 0, 0);
    for i in 0..4_000 {
        let (e, _) = entity(&mut rng);
        let wire = compact(&e);
        let canonical = decoders_agree(wire.as_bytes()).expect("the wire form decodes");

        // The same entity, written every way the grammar allows.
        let mut doc = String::new();
        ws(&mut rng, &mut doc);
        noisy(&mut rng, &e.to_json(), 0, &mut doc);
        ws(&mut rng, &mut doc);
        let decoded = decoders_agree(doc.as_bytes());
        assert_eq!(decoded.as_ref(), Some(&canonical), "{doc}");
        noisy_ok += 1;

        // Damage: every truncation of the first entities, then seeded flips
        // of one byte (to any value: invalid UTF-8 included) everywhere.
        // (A noisy document cut inside its trailing whitespace still
        // decodes; the canonical wire has none.)
        let source = if rng.chance(0.5) {
            wire.as_bytes()
        } else {
            doc.as_bytes()
        };
        if i < 100 {
            for len in 0..source.len() {
                let decoded = decoders_agree(&source[..len]);
                assert!(
                    decoded.is_none() || source == doc.as_bytes(),
                    "prefix {len}"
                );
            }
        }
        for _ in 0..8 {
            let mut bytes = source.to_vec();
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] = rng.next_u64() as u8;
            damaged += 1;
            damaged_ok += u32::from(decoders_agree(&bytes).is_some());
        }
    }
    assert_eq!(noisy_ok, 4_000);
    // Flips inside string and number tokens leave documents decodable;
    // flips of structure do not. Both kinds must occur.
    assert!(
        damaged_ok > damaged / 10 && damaged_ok < damaged * 9 / 10,
        "{damaged_ok} of {damaged} damaged documents decoded"
    );
}

/// The tree's rules, case by case: the last of a repeated key wins at
/// every level (so an invalid copy a later one replaces is no error), a
/// non-object `attrs` or `metadata` is ignored, unknown keys are skipped,
/// and every string form of a key or value is the same string.
#[test]
fn reader_follows_the_tree_on_duplicates_shapes_and_escapes() {
    let accepts = |doc: &str| -> Entity {
        decoders_agree(doc.as_bytes()).unwrap_or_else(|| panic!("refused {doc}"))
    };
    let refuses = |doc: &str| assert!(decoders_agree(doc.as_bytes()).is_none(), "{doc}");

    let mut one = Entity::new("urn:x", "T");
    one.set("a", 1.0);
    for doc in [
        r#"{"attrs":{"a":{"value":1}},"id":"urn:x","type":"T"}"#,
        // Whitespace everywhere, keys in any order, unknown keys skipped.
        " \t{ \"type\" : \"T\" ,\r\n\"zz\":[{}], \"id\":\"urn:x\",\"attrs\":{\"a\":{\"unit\":3,\"value\":1}} }\n",
        // Escaped keys and values are the same strings.
        r#"{"\u0061ttrs":{"\u0061":{"v\u0061lue":1}},"i\u0064":"urn\u003ax","type":"\u0054"}"#,
        // Repeated `id`, `type`, `attrs`, attribute, `value`, `metadata`:
        // the last wins, and the invalid copies it replaces are no error.
        r#"{"id":7,"type":null,"attrs":{"b":{}},"attrs":{"a":{"value":"x"},"a":{},"a":{"value":1}},"id":" pad","id":"urn:x","type":"T"}"#,
        r#"{"attrs":{"a":{"metadata":{"u":5},"value":[1,"a"],"metadata":3,"value":1}},"id":"urn:x","type":"T"}"#,
        r#"{"attrs":{"b":{"value":2}},"attrs":{"a":{"value":1}},"id":"urn:x","type":"T"}"#,
        r#"{"attrs":{"a":{"metadata":{"u":5},"metadata":{},"value":1}},"id":"urn:x","type":"T"}"#,
        // A non-numeric timestamp is no timestamp.
        r#"{"attrs":{"a":{"observedAt":"t","value":1}},"id":"urn:x","type":"T"}"#,
    ] {
        assert_eq!(accepts(doc), one, "{doc}");
    }
    // The last copy wins when it is the invalid one, too.
    refuses(r#"{"attrs":{"a":{"value":1},"a":{}},"id":"urn:x","type":"T"}"#);
    refuses(r#"{"attrs":{"a":{"value":1}},"attrs":{"a":7},"id":"urn:x","type":"T"}"#);
    refuses(
        r#"{"attrs":{"a":{"metadata":{},"value":1,"metadata":{"u":5}}},"id":"urn:x","type":"T"}"#,
    );
    refuses(r#"{"attrs":{"a":{"metadata":{"u":"v","u":5},"value":1}},"id":"urn:x","type":"T"}"#);
    refuses(r#"{"attrs":{},"id":"urn:x","id":7,"type":"T"}"#);
    // A non-object `attrs` (or a later one replacing an object) is ignored.
    for attrs in ["[1]", "7", "null", "\"a\""] {
        let doc = format!(r#"{{"attrs":{{"a":{{}}}},"attrs":{attrs},"id":"urn:x","type":"T"}}"#);
        assert!(accepts(&doc).is_empty(), "{doc}");
    }
    let mut meta = Entity::new("urn:x", "T");
    meta.set_attribute("a", Attribute::new(1.0).with_meta("u", "v"));
    assert_eq!(
        accepts(
            r#"{"attrs":{"a":{"metadata":{"u":5,"u":"v"},"value":1}},"id":"urn:x","type":"T"}"#
        ),
        meta
    );

    // Every value shape decodes as the tree decodes it.
    for value in [
        r#"{"lat":-12.15,"lon":-45,"type":"geo:point"}"#,
        r#"{"type":"geo:point"}"#,
        r#"{"type":"geo:point","lat":"x","type":"other"}"#,
        "[1,2.5e-7,-0]",
        "[]",
        r#"[1,"a",null]"#,
        r#"{"z":[true,null],"a":"b","a":"c"}"#,
        "null",
        "true",
        r#""say \"hi\"\\\n\u0001é💧\ud83d\udca7""#,
    ] {
        let doc = format!(r#"{{"attrs":{{"v":{{"value":{value}}}}},"id":"urn:x","type":"T"}}"#);
        let e = accepts(&doc);
        let expect = AttrValue::from_json_owned(Json::parse(value).unwrap());
        assert_eq!(e.attribute("v").map(|a| &a.value), Some(&expect), "{value}");
    }

    // Strings: surrogate pairs, non-ASCII, and what the grammar refuses.
    let probe = accepts(r#"{"attrs":{},"id":"urn:💧-\ud83d\udca7-稻","type":"солома"}"#);
    assert_eq!(probe.id().as_str(), "urn:💧-💧-稻");
    assert_eq!(probe.entity_type(), "солома");
    for bad in [
        r#"{"attrs":{},"id":"urn:\ud83d","type":"T"}"#,
        r#"{"attrs":{},"id":"urn:\udca7","type":"T"}"#,
        r#"{"attrs":{},"id":"urn:\ud83dA","type":"T"}"#,
        r#"{"attrs":{},"id":"urn:\q","type":"T"}"#,
        r#"{"attrs":{},"id":"urn:\u12","type":"T"}"#,
        "{\"attrs\":{},\"id\":\"urn:\u{1}\",\"type\":\"T\"}",
        r#"{"attrs":{},"id":"urn:x","type":"T"} x"#,
        r#"{"attrs":{},"id":"urn:x","type":"T",}"#,
        r#"["id","urn:x"]"#,
        "",
    ] {
        refuses(bad);
    }
    // Bytes that are not UTF-8, inside a string and outside one.
    let good = br#"{"attrs":{},"id":"urn:x","type":"T"}"#;
    for (at, junk) in [
        (17, &[0xFF][..]),
        (17, &[0xC0, 0xAF]),
        (17, &[0xED, 0xA0, 0x80]),
        (17, &[0xE2, 0x82]),
        (17, &[0xF0, 0x9F, 0x92]),
        (0, &[0xEF, 0xBB]),
        (good.len(), &[0x80]),
    ] {
        let mut bytes = good.to_vec();
        bytes.splice(at..at, junk.iter().copied());
        if let Ok(text) = std::str::from_utf8(&bytes) {
            panic!("{text:?} is UTF-8");
        }
        assert!(decoders_agree(&bytes).is_none());
    }
}

/// [`MAX_DEPTH`] holds wherever a value can nest: in an attribute value
/// (three containers below the entity), in an unknown key, in `id`.
#[test]
fn reader_enforces_max_depth_where_the_tree_does() {
    let nest = |k: usize| "[".repeat(k) + &"]".repeat(k);
    for (template, top) in [
        (
            r#"{"attrs":{"a":{"value":NEST}},"id":"urn:x","type":"T"}"#,
            3,
        ),
        (
            r#"{"attrs":{"a":{"zz":NEST,"value":1}},"id":"urn:x","type":"T"}"#,
            3,
        ),
        (r#"{"zz":NEST,"attrs":{},"id":"urn:x","type":"T"}"#, 1),
        (r#"{"attrs":{},"id":NEST,"id":"urn:x","type":"T"}"#, 1),
        (
            r#"{"attrs":{"a":{"metadata":NEST,"metadata":{},"value":1}},"id":"urn:x","type":"T"}"#,
            3,
        ),
    ] {
        // The innermost of `k` arrays opened at depth `top` sits at
        // `top + k - 1`: accepted at MAX_DEPTH, refused at MAX_DEPTH + 1.
        let at_limit = MAX_DEPTH + 1 - top;
        let doc = template.replace("NEST", &nest(at_limit));
        assert!(
            decoders_agree(doc.as_bytes()).is_some(),
            "{template} at MAX_DEPTH"
        );
        let doc = template.replace("NEST", &nest(at_limit + 1));
        assert!(
            decoders_agree(doc.as_bytes()).is_none(),
            "{template} past MAX_DEPTH"
        );
    }
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

/// Attribute names that share prefixes, differ only in case, or are empty:
/// the orderings a sorted layout can get wrong.
const MODEL_NAMES: &[&str] = &[
    "",
    "a",
    "A",
    "ab",
    "aB",
    "Ab",
    "abc",
    "b",
    "moisture",
    "Moisture",
    "moisture_vwc",
    "moisture_vwc_2",
    "seq",
    "é",
    "e",
];

/// A finite-valued attribute (NaN would make `==` meaningless).
fn model_attr(rng: &mut SimRng) -> Attribute {
    let mut attr = Attribute::new(match rng.below(3) {
        0 => AttrValue::Number(rng.uniform_range(-10.0, 10.0)),
        1 => AttrValue::Text(text(rng, 4)),
        _ => AttrValue::Flag(rng.chance(0.5)),
    });
    if rng.chance(0.3) {
        attr = attr.observed_at(rng.below(1_000));
    }
    if rng.chance(0.2) {
        attr = attr.with_meta(*rng.pick(MODEL_NAMES), "m");
    }
    attr
}

/// Holds `e` to the reference map `model` in every observable way.
fn assert_matches_model(e: &Entity, model: &BTreeMap<String, Attribute>) {
    let got: Vec<(&str, &Attribute)> = e.attributes().collect();
    let want: Vec<(&str, &Attribute)> = model.iter().map(|(k, a)| (k.as_str(), a)).collect();
    assert_eq!(got, want);
    assert_eq!(e.len(), model.len());
    assert_eq!(e.is_empty(), model.is_empty());
    for name in MODEL_NAMES {
        let attr = model.get(*name);
        assert_eq!(e.attribute(name), attr, "{name:?}");
        let value = attr.map(|a| &a.value);
        assert_eq!(e.number(name), value.and_then(AttrValue::as_number));
        assert_eq!(e.text(name), value.and_then(AttrValue::as_text));
        assert_eq!(e.flag(name), value.and_then(AttrValue::as_flag));
    }
    // Equal to the same attributes inserted in reverse order; unequal
    // once one of them is gone.
    let mut rebuilt = Entity::new(e.id().clone(), e.entity_type());
    for (k, a) in model.iter().rev() {
        rebuilt.set_attribute(k.as_str(), a.clone());
    }
    assert_eq!(e, &rebuilt);
    if let Some(first) = model.keys().next() {
        rebuilt.remove(first);
        assert_ne!(e, &rebuilt);
    }
    let tree = Json::object([
        (
            "attrs".to_owned(),
            Json::Object(
                model
                    .iter()
                    .map(|(k, a)| (k.clone(), a.to_json()))
                    .collect(),
            ),
        ),
        ("id".to_owned(), Json::String(e.id().as_str().to_owned())),
        ("type".to_owned(), Json::String(e.entity_type().to_owned())),
    ]);
    assert_eq!(compact(e), tree.to_compact_string());
    let reference = MapEntity(e, model);
    assert_eq!(format!("{e:?}"), format!("{reference:?}"));
    assert_eq!(format!("{e:#?}"), format!("{reference:#?}"));
}

/// `Debug` of an entity whose attributes are the map: what the derived
/// `Debug` printed when `Entity` held a `BTreeMap`.
struct MapEntity<'a>(&'a Entity, &'a BTreeMap<String, Attribute>);

impl fmt::Debug for MapEntity<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Entity")
            .field("id", self.0.id())
            .field("entity_type", &self.0.entity_type())
            .field("attributes", self.1)
            .finish()
    }
}

/// The wire form of `attrs` in order, duplicate names and all, as one
/// entity document.
fn duplicate_key_wire(attrs: &[(String, Attribute)]) -> String {
    let members: Vec<String> = attrs
        .iter()
        .map(|(k, a)| {
            format!(
                "{}:{}",
                Json::String(k.clone()).to_compact_string(),
                a.to_json().to_compact_string()
            )
        })
        .collect();
    format!(
        r#"{{"attrs":{{{}}},"id":"urn:model","type":"Probe"}}"#,
        members.join(",")
    )
}

#[test]
fn sorted_attributes_match_a_map_model() {
    let mut rng = SimRng::seed_from(0x006d_6f64_656c); // "model"
    let mut ops = [0u32; 5];
    for _ in 0..300 {
        let mut e = Entity::new("urn:model", "Probe");
        let mut model: BTreeMap<String, Attribute> = BTreeMap::new();
        for _ in 0..rng.below(24) {
            let name = (*rng.pick(MODEL_NAMES)).to_owned();
            let op = rng.below(5);
            ops[op as usize] += 1;
            match op {
                0 => {
                    let value = AttrValue::Number(rng.uniform_range(-1.0, 1.0));
                    model.insert(name.clone(), Attribute::new(value.clone()));
                    e.set(name, value);
                }
                1 => {
                    let attr = model_attr(&mut rng);
                    model.insert(name.clone(), attr.clone());
                    e.set_attribute(name, attr);
                }
                2 => assert_eq!(e.remove(&name), model.remove(&name)),
                3 => {
                    let mut other = Entity::new("urn:model", "Probe");
                    for _ in 0..rng.below(5) {
                        let (name, attr) = (*rng.pick(MODEL_NAMES), model_attr(&mut rng));
                        model.insert(name.to_owned(), attr.clone());
                        other.set_attribute(name, attr);
                    }
                    e.merge_owned(other);
                }
                _ => {
                    // A decoded document replaces the entity: the last of
                    // each repeated name wins, as in the map.
                    let attrs: Vec<(String, Attribute)> = (0..rng.below(8))
                        .map(|_| ((*rng.pick(MODEL_NAMES)).to_owned(), model_attr(&mut rng)))
                        .collect();
                    model = attrs.iter().cloned().collect();
                    let wire = duplicate_key_wire(&attrs);
                    e = Entity::read_compact(wire.as_bytes()).expect("a valid document");
                    assert_eq!(decoders_agree(wire.as_bytes()).as_ref(), Some(&e));
                }
            }
            assert_matches_model(&e, &model);
        }
    }
    assert!(ops.iter().all(|&n| n > 400), "{ops:?}");
}
