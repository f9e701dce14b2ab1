//! Streaming serialization: every [`Serialize`] impl writes its JSON text
//! straight into a [`Serializer`]'s output buffer. No intermediate value
//! tree is built, so a document costs only the bytes it writes.

use crate::de::DeError;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Writes `self` as one JSON value.
    ///
    /// # Errors
    ///
    /// Returns an error if the value cannot be represented in JSON (a
    /// non-finite float, or a map whose key type has no string form).
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError>;

    /// Writes `self` as a quoted JSON object key. Integers and strings
    /// (and newtypes and unit enums over them) support this; the default
    /// returns an error.
    ///
    /// # Errors
    ///
    /// Returns an error for key types without a string form.
    fn serialize_key(&self, s: &mut Serializer) -> Result<(), DeError> {
        let _ = s;
        Err(DeError::msg(format!(
            "unsupported map key type `{}`",
            std::any::type_name::<Self>()
        )))
    }
}

/// A JSON writer: owns the output text, the compact or pretty layout and
/// the current nesting depth.
#[derive(Debug, Default)]
pub struct Serializer {
    out: String,
    /// Spaces per nesting level; `None` writes compact JSON.
    indent: Option<usize>,
    depth: usize,
}

impl Serializer {
    /// A writer for compact JSON (no whitespace).
    pub fn compact() -> Self {
        Serializer::default()
    }

    /// A writer for pretty JSON: two spaces per level, one value per line,
    /// `": "` after keys; empty containers stay `[]` and `{}`.
    pub fn pretty() -> Self {
        Serializer {
            indent: Some(2),
            ..Serializer::default()
        }
    }

    /// The JSON written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Writes `null`.
    fn write_null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    fn write_bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes a signed integer.
    fn write_i64(&mut self, i: i64) {
        if i < 0 {
            self.out.push('-');
        }
        self.push_digits(i.unsigned_abs());
    }

    /// Writes an unsigned integer.
    fn write_u64(&mut self, u: u64) {
        self.push_digits(u);
    }

    /// Writes a float in the shortest form that parses back to the same
    /// value; integral floats below 1e15 in magnitude gain a `.0` so they
    /// re-parse as floats.
    ///
    /// # Errors
    ///
    /// Returns an error for NaN and infinities, which JSON cannot express.
    fn write_f64(&mut self, f: f64) -> Result<(), DeError> {
        if !f.is_finite() {
            return Err(DeError::msg("cannot serialize non-finite float as JSON"));
        }
        if f.fract() == 0.0 && f.abs() < 1e15 {
            // Same bytes as `{f:.1}`, whose exact-precision formatter is
            // slow: below 1e15 (< 2^53) an integral float is exactly its
            // integer. Most floats in a long run's time series are integral.
            if f.is_sign_negative() {
                self.out.push('-');
            }
            self.push_digits(f.abs() as u64);
            self.out.push_str(".0");
        } else {
            let _ = write!(self.out, "{f}");
        }
        Ok(())
    }

    /// Writes a quoted, escaped JSON string.
    pub fn write_str(&mut self, s: &str) {
        self.out.push('"');
        if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
            self.out.push_str(s);
        } else {
            for c in s.chars() {
                match c {
                    '"' => self.out.push_str("\\\""),
                    '\\' => self.out.push_str("\\\\"),
                    '\n' => self.out.push_str("\\n"),
                    '\r' => self.out.push_str("\\r"),
                    '\t' => self.out.push_str("\\t"),
                    '\u{08}' => self.out.push_str("\\b"),
                    '\u{0c}' => self.out.push_str("\\f"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(self.out, "\\u{:04x}", c as u32);
                    }
                    c => self.out.push(c),
                }
            }
        }
        self.out.push('"');
    }

    /// Writes a signed integer as an object key: its digits in quotes.
    fn write_i64_key(&mut self, i: i64) {
        self.out.push('"');
        self.write_i64(i);
        self.out.push('"');
    }

    /// Writes an unsigned integer as an object key: its digits in quotes.
    fn write_u64_key(&mut self, u: u64) {
        self.out.push('"');
        self.write_u64(u);
        self.out.push('"');
    }

    /// Opens a JSON array; write its elements through the returned writer.
    pub fn seq(&mut self) -> SeqWriter<'_> {
        self.out.push('[');
        self.depth += 1;
        SeqWriter {
            ser: self,
            first: true,
        }
    }

    /// Opens a JSON object; write its entries through the returned writer.
    pub fn map(&mut self) -> MapWriter<'_> {
        self.out.push('{');
        self.depth += 1;
        MapWriter {
            ser: self,
            first: true,
        }
    }

    fn push_digits(&mut self, mut n: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
    }

    /// Starts a container item: the separator, then in pretty mode a line
    /// break and the indent of the current depth.
    fn item(&mut self, first: &mut bool) {
        if !std::mem::take(first) {
            self.out.push(',');
        }
        self.newline();
    }

    /// Closes a container opened at the previous depth.
    fn close(&mut self, empty: bool, bracket: char) {
        self.depth -= 1;
        if !empty {
            self.newline();
        }
        self.out.push(bracket);
    }

    /// Ends an object key: `:`, or `": "` when pretty.
    fn colon(&mut self) {
        self.out
            .push_str(if self.indent.is_some() { ": " } else { ":" });
    }

    fn newline(&mut self) {
        if let Some(w) = self.indent {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', w * self.depth));
        }
    }
}

/// Writes the elements of one JSON array; finish with [`SeqWriter::end`].
pub struct SeqWriter<'a> {
    ser: &'a mut Serializer,
    first: bool,
}

impl SeqWriter<'_> {
    /// Writes one element.
    ///
    /// # Errors
    ///
    /// Propagates the element's serialization error.
    pub fn element<T: Serialize + ?Sized>(&mut self, v: &T) -> Result<(), DeError> {
        self.ser.item(&mut self.first);
        v.serialize(self.ser)
    }

    /// Closes the array.
    ///
    /// # Errors
    ///
    /// Never fails; returns `Result` so impls can end with it.
    pub fn end(self) -> Result<(), DeError> {
        self.ser.close(self.first, ']');
        Ok(())
    }
}

/// Writes the entries of one JSON object; finish with [`MapWriter::end`].
pub struct MapWriter<'a> {
    ser: &'a mut Serializer,
    first: bool,
}

impl MapWriter<'_> {
    /// Writes the separator and the key `k` of the next entry, and returns
    /// the serializer positioned for its value, which the caller must write.
    ///
    /// # Errors
    ///
    /// Returns an error if `K` has no key form.
    pub fn key<K: Serialize + ?Sized>(&mut self, k: &K) -> Result<&mut Serializer, DeError> {
        self.ser.item(&mut self.first);
        k.serialize_key(self.ser)?;
        self.ser.colon();
        Ok(self.ser)
    }

    /// Writes one struct field. `name` is written between quotes as it
    /// stands, so it must need no escaping; derived impls pass Rust field
    /// identifiers, which never do.
    ///
    /// # Errors
    ///
    /// Propagates the value's serialization error.
    pub fn field<V>(&mut self, name: &'static str, v: &V) -> Result<(), DeError>
    where
        V: Serialize + ?Sized,
    {
        debug_assert!(!name.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\'));
        self.ser.item(&mut self.first);
        self.ser.out.push('"');
        self.ser.out.push_str(name);
        self.ser.out.push('"');
        self.ser.colon();
        v.serialize(self.ser)
    }

    /// Writes one `key: value` entry.
    ///
    /// # Errors
    ///
    /// Propagates the key's or the value's serialization error.
    pub fn entry<K, V>(&mut self, k: &K, v: &V) -> Result<(), DeError>
    where
        K: Serialize + ?Sized,
        V: Serialize + ?Sized,
    {
        v.serialize(self.key(k)?)
    }

    /// Closes the object.
    ///
    /// # Errors
    ///
    /// Never fails; returns `Result` so impls can end with it.
    pub fn end(self) -> Result<(), DeError> {
        self.ser.close(self.first, '}');
        Ok(())
    }
}

macro_rules! ser_int {
    ($write:ident, $key:ident, $wide:ty: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
                s.$write(*self as $wide);
                Ok(())
            }

            fn serialize_key(&self, s: &mut Serializer) -> Result<(), DeError> {
                s.$key(*self as $wide);
                Ok(())
            }
        }
    )*};
}

ser_int!(write_i64, write_i64_key, i64: i8, i16, i32, i64, isize);
ser_int!(write_u64, write_u64_key, u64: u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        s.write_f64(*self)
    }
}

impl Serialize for f32 {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        s.write_f64(*self as f64)
    }
}

impl Serialize for bool {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        s.write_bool(*self);
        Ok(())
    }
}

impl Serialize for str {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        s.write_str(self);
        Ok(())
    }

    fn serialize_key(&self, s: &mut Serializer) -> Result<(), DeError> {
        s.write_str(self);
        Ok(())
    }
}

impl Serialize for String {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        self.as_str().serialize(s)
    }

    fn serialize_key(&self, s: &mut Serializer) -> Result<(), DeError> {
        self.as_str().serialize_key(s)
    }
}

impl Serialize for char {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        self.encode_utf8(&mut [0; 4]).serialize(s)
    }

    fn serialize_key(&self, s: &mut Serializer) -> Result<(), DeError> {
        self.encode_utf8(&mut [0; 4]).serialize_key(s)
    }
}

macro_rules! ser_deref {
    ($($ptr:ident),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $ptr<T> {
            fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
                (**self).serialize(s)
            }

            fn serialize_key(&self, s: &mut Serializer) -> Result<(), DeError> {
                (**self).serialize_key(s)
            }
        }
    )*};
}

ser_deref!(Box, Arc, Rc);

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        (**self).serialize(s)
    }

    fn serialize_key(&self, s: &mut Serializer) -> Result<(), DeError> {
        (**self).serialize_key(s)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        match self {
            Some(v) => v.serialize(s),
            None => {
                s.write_null();
                Ok(())
            }
        }
    }
}

/// Writes every item of `items` as one JSON array.
fn write_seq<'a, T: Serialize + 'a>(
    items: impl IntoIterator<Item = &'a T>,
    s: &mut Serializer,
) -> Result<(), DeError> {
    let mut seq = s.seq();
    for item in items {
        seq.element(item)?;
    }
    seq.end()
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        write_seq(self, s)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        write_seq(self, s)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        write_seq(self, s)
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        write_seq(self, s)
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        let mut map = s.map();
        for (k, v) in self {
            map.entry(k, v)?;
        }
        map.end()
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
        // Sort by the key's string form for deterministic output.
        let mut entries = Vec::with_capacity(self.len());
        for (k, v) in self {
            let mut key = Serializer::compact();
            k.serialize_key(&mut key)?;
            entries.push((unquote(&key.out), k, v));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut map = s.map();
        for (_, k, v) in entries {
            map.entry(k, v)?;
        }
        map.end()
    }
}

/// The string a quoted key written by [`Serialize::serialize_key`] stands
/// for: the quotes stripped and [`Serializer::write_str`]'s escapes undone.
fn unquote(key: &str) -> String {
    let mut raw = String::with_capacity(key.len());
    let mut chars = key[1..key.len() - 1].chars();
    while let Some(c) = chars.next() {
        raw.push(match c {
            '\\' => match chars.next() {
                Some('n') => '\n',
                Some('r') => '\r',
                Some('t') => '\t',
                Some('b') => '\u{08}',
                Some('f') => '\u{0c}',
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    u32::from_str_radix(&hex, 16)
                        .ok()
                        .and_then(char::from_u32)
                        .expect("write_str escapes control characters as \\u00XX")
                }
                // `\"` and `\\`.
                other => other.expect("write_str never ends on a lone backslash"),
            },
            c => c,
        });
    }
    raw
}

macro_rules! ser_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, s: &mut Serializer) -> Result<(), DeError> {
                let mut seq = s.seq();
                $(seq.element(&self.$idx)?;)+
                seq.end()
            }
        }
    };
}

ser_tuple!(A: 0);
ser_tuple!(A: 0, B: 1);
ser_tuple!(A: 0, B: 1, C: 2);
ser_tuple!(A: 0, B: 1, C: 2, D: 3);
ser_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
ser_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
