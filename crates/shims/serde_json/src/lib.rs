//! Offline stand-in for the `serde_json` crate.
//!
//! Serializes by streaming through the vendored serde shim's
//! [`Serializer`], and parses text into its [`Value`] tree for
//! deserialization. Numbers round-trip exactly: integers are emitted
//! verbatim and floats use Rust's shortest round-trippable `Display` form.

use serde::{DeError, Deserialize, Serialize, Serializer, Value};

pub use serde::Value as JsonValue;

/// Errors from serialization or deserialization.
pub type Error = DeError;

/// A `Result` alias matching upstream's shape.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` to a compact JSON string.
///
/// # Errors
///
/// Returns an error if the value contains a non-finite float (JSON has no
/// representation for NaN or infinities) or a map key that is neither an
/// integer nor a string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut s = Serializer::compact();
    value.serialize(&mut s)?;
    Ok(s.into_string())
}

/// Serializes `value` to pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Returns an error if the value contains a non-finite float or an
/// unsupported map key.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut s = Serializer::pretty();
    value.serialize(&mut s)?;
    Ok(s.into_string())
}

/// Parses a value of type `T` from a JSON string.
///
/// # Errors
///
/// Returns an error on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse(s)?;
    T::from_value(&value)
}

/// The deepest array/object nesting [`parse`] accepts, as in upstream
/// serde_json. The parser recurses once per level, so the limit keeps a
/// hostile document from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document into a [`Value`].
///
/// # Errors
///
/// Returns an error describing the first syntax problem encountered, or
/// if arrays and objects nest deeper than [`MAX_DEPTH`].
pub fn parse(s: &str) -> Result<Value> {
    let bytes = s.as_bytes();
    let mut p = Parser {
        text: s,
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(DeError::msg(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(DeError::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(DeError::msg(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if b == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(DeError::msg(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => {
                    return Err(DeError::msg(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(DeError::msg(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(DeError::msg("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.eat_literal("\\u") {
                                    return Err(DeError::msg("lone leading surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(DeError::msg("invalid trailing surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| DeError::msg("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| DeError::msg("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 consumed pos already
                        }
                        other => {
                            return Err(DeError::msg(format!(
                                "invalid escape {:?}",
                                other.map(|b| b as char)
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape at once.
                    // Both are ASCII, so the run ends on a char boundary.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(DeError::msg("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| DeError::msg("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| DeError::msg("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| DeError::msg("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| DeError::msg(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn round_trips_scalars() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        let s: String = from_str("\"hey \\u00e9\\n\"").unwrap();
        assert_eq!(s, "hey \u{e9}\n");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1f64, 1.0 / 3.0, 1e-12, 6.02e23, -0.0, 12.5, 3.0] {
            let json = to_string(&f).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} via {json}");
        }
        assert!(to_string(&f64::NAN).is_err());
    }

    #[test]
    fn integral_floats_stay_floats() {
        assert_eq!(to_string(&3.0f64).unwrap(), "3.0");
        let back: f64 = from_str("3.0").unwrap();
        assert_eq!(back, 3.0);
    }

    #[test]
    fn maps_round_trip_with_numeric_keys() {
        let mut m: BTreeMap<u32, f64> = BTreeMap::new();
        m.insert(3, 1.5);
        m.insert(1, 2.5);
        let json = to_string(&m).unwrap();
        assert_eq!(json, "{\"1\":2.5,\"3\":1.5}");
        let back: BTreeMap<u32, f64> = from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn nested_structures_round_trip() {
        let v: Vec<(u32, String, Option<f64>)> =
            vec![(1, "a".into(), Some(0.5)), (2, "b\"quoted\"".into(), None)];
        let json = to_string(&v).unwrap();
        let back: Vec<(u32, String, Option<f64>)> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_output_is_indented_and_parseable() {
        let mut m: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        m.insert("xs".into(), vec![1, 2]);
        let pretty = to_string_pretty(&m).unwrap();
        assert!(pretty.contains("\n  \"xs\": [\n    1,\n    2\n  ]"));
        let back: BTreeMap<String, Vec<u32>> = from_str(&pretty).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // Deep enough to overflow the stack without the limit.
        assert!(parse(&nested(200_000)).is_err());
        let objects = "{\"a\":".repeat(200_000);
        assert!(from_str::<Vec<u32>>(&objects).is_err());
    }

    #[test]
    fn long_strings_parse_whole_runs_between_escapes() {
        // Multi-byte runs of every width, split by escapes and `\u` pairs.
        let run = "aé→漢😀".repeat(4_000);
        let raw = format!("{run}\"{run}\\\n{run}\u{1}😀{run}");
        let json = to_string(&raw).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), raw);
        let escaped = format!("\"{run}\\ud83d\\ude00\\u00e9\\/{run}\"");
        assert_eq!(
            from_str::<String>(&escaped).unwrap(),
            format!("{run}😀é/{run}")
        );
    }

    #[test]
    fn pretty_empty_containers_stay_on_one_line() {
        assert_eq!(to_string_pretty(&Vec::<u32>::new()).unwrap(), "[]");
        assert_eq!(
            to_string_pretty(&BTreeMap::<u32, u32>::new()).unwrap(),
            "{}"
        );
        let mut m: BTreeMap<String, (Vec<u32>, BTreeMap<u32, u32>)> = BTreeMap::new();
        m.insert("k".into(), (Vec::new(), BTreeMap::new()));
        assert_eq!(
            to_string_pretty(&m).unwrap(),
            "{\n  \"k\": [\n    [],\n    {}\n  ]\n}"
        );
    }

    #[test]
    fn control_characters_escape_and_non_ascii_passes_through() {
        let s = "\u{0}\u{1}\u{1f}\u{8}\u{c}\u{7f}";
        let json = to_string(&s).unwrap();
        assert_eq!(json, "\"\\u0000\\u0001\\u001f\\b\\f\u{7f}\"");
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        let wide = "é→漢😀";
        assert_eq!(to_string(&wide).unwrap(), format!("\"{wide}\""));
        assert_eq!(to_string(&'😀').unwrap(), "\"😀\"");
        let mixed = "é\"漢\\😀\nz";
        assert_eq!(
            from_str::<String>(&to_string(&mixed).unwrap()).unwrap(),
            mixed
        );
    }

    #[test]
    fn float_bytes_at_the_edges() {
        assert_eq!(to_string(&-0.0f64).unwrap(), "-0.0");
        // Integral floats below 1e15 keep a `.0`; from 1e15 on, `Display`.
        assert_eq!(
            to_string(&999_999_999_999_999.0f64).unwrap(),
            "999999999999999.0"
        );
        assert_eq!(
            to_string(&-999_999_999_999_999.0f64).unwrap(),
            "-999999999999999.0"
        );
        assert_eq!(to_string(&1e15f64).unwrap(), "1000000000000000");
        assert_eq!(to_string(&-1e15f64).unwrap(), "-1000000000000000");
        // Integral floats are written from their integer digits.
        for f in [
            0.0,
            1.0,
            -42.0,
            240.0,
            4_294_967_296.0,
            -123_456_789_012_345.0,
        ] {
            assert_eq!(to_string(&f).unwrap(), format!("{f:.1}"));
        }
        assert_eq!(to_string(&0.5f32).unwrap(), "0.5");
        assert!(to_string(&vec![1.0, f64::INFINITY]).is_err());
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Tier {
        Gold,
        Silver,
    }

    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
    struct Id(u32);

    mod as_pairs {
        use serde::{DeError, Deserialize, Serializer, Value};
        use std::collections::BTreeMap;

        pub fn serialize(
            m: &BTreeMap<(u32, u32), bool>,
            s: &mut Serializer,
        ) -> Result<(), DeError> {
            let mut seq = s.seq();
            for (&(a, b), &v) in m {
                seq.element(&(a, b, v))?;
            }
            seq.end()
        }

        pub fn from_value(v: &Value) -> Result<BTreeMap<(u32, u32), bool>, DeError> {
            let triples = Vec::<(u32, u32, bool)>::from_value(v)?;
            Ok(triples.into_iter().map(|(a, b, v)| ((a, b), v)).collect())
        }
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Derived {
        tier: Tier,
        by_id: BTreeMap<Id, Tier>,
        by_tier: BTreeMap<Tier, u32>,
        #[serde(with = "as_pairs")]
        pairs: BTreeMap<(u32, u32), bool>,
        pair: (Id, Option<u64>),
    }

    // `Tier` is a map key above, so it needs an order.
    impl PartialOrd for Tier {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Tier {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (matches!(self, Tier::Silver)).cmp(&matches!(other, Tier::Silver))
        }
    }
    impl Eq for Tier {}

    #[test]
    fn derived_enums_newtype_keys_and_with_modules() {
        let d = Derived {
            tier: Tier::Silver,
            by_id: [(Id(7), Tier::Gold), (Id(10), Tier::Silver)].into(),
            by_tier: [(Tier::Gold, 1)].into(),
            pairs: [((1, 2), true), ((3, 4), false)].into(),
            pair: (Id(5), None),
        };
        let json = to_string(&d).unwrap();
        assert_eq!(
            json,
            "{\"tier\":\"Silver\",\"by_id\":{\"7\":\"Gold\",\"10\":\"Silver\"},\
             \"by_tier\":{\"Gold\":1},\"pairs\":[[1,2,true],[3,4,false]],\"pair\":[5,null]}"
        );
        assert_eq!(from_str::<Derived>(&json).unwrap(), d);
        let pretty = to_string_pretty(&d).unwrap();
        assert!(
            pretty.contains("\n  \"pairs\": [\n    [\n      1,"),
            "{pretty}"
        );
        assert_eq!(from_str::<Derived>(&pretty).unwrap(), d);
    }

    #[test]
    fn hash_map_entries_sort_by_their_key_string() {
        let m: std::collections::HashMap<u32, u8> = [(9, 0), (10, 1), (100, 2)].into();
        assert_eq!(to_string(&m).unwrap(), "{\"10\":1,\"100\":2,\"9\":0}");
        // Sorted by the raw key, not its escaped form: `"` (0x22) precedes
        // `#` (0x23) although its escape `\"` starts with `\` (0x5c).
        let m: std::collections::HashMap<&str, u8> = [("a#", 0), ("a\"", 1)].into();
        assert_eq!(to_string(&m).unwrap(), "{\"a\\\"\":1,\"a#\":0}");
        // `\u{1}` (0x01) precedes `\n` (0x0a), though `\u0001` sorts after `\n`.
        let m: std::collections::HashMap<String, u8> =
            [("a\n".into(), 0), ("a\u{1}".into(), 1), ("a\\".into(), 2)].into();
        assert_eq!(
            to_string(&m).unwrap(),
            "{\"a\\u0001\":1,\"a\\n\":0,\"a\\\\\":2}"
        );
    }

    #[test]
    fn unsupported_map_keys_are_errors_not_panics() {
        let m: BTreeMap<(u32, u32), u32> = [((1, 2), 3)].into();
        let err = to_string(&m).unwrap_err();
        assert!(
            err.to_string().contains("unsupported map key type"),
            "{err}"
        );
        let m: BTreeMap<bool, u32> = [(true, 1)].into();
        assert!(to_string_pretty(&m).is_err());
        let m: std::collections::HashMap<Option<u32>, u32> = [(None, 1)].into();
        assert!(to_string(&m).is_err());
    }
}
