//! JSON to and from plain Rust types through one intermediate [`Value`].
//!
//! Everything the workspace persists or sends as JSON (`manifest.json`,
//! `generations.json`, the cluster manifest, JSONL traces, reports) goes
//! through here. The layout follows the conventions those files were first
//! written with: struct fields in declaration order, unit enum variants as
//! strings, `Option` as `null`, integer map keys as decimal strings, no
//! spaces when compact, two-space indent and `": "` when pretty, floats in
//! their shortest round-trip form and always with a fraction or exponent,
//! non-finite floats as `null`.
//!
//! These files are read back from disk on resume and reload, so the parser
//! treats its input as hostile: every failure is a typed [`Error`], and
//! nesting beyond [`MAX_DEPTH`] is refused before it can exhaust the stack.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// One JSON value. Objects keep insertion order, as struct fields do;
/// integers keep all 64 bits.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// Nesting beyond this is refused, so hostile input cannot overflow the
/// stack of the recursive parser.
pub const MAX_DEPTH: usize = 128;

/// Why text could not be parsed, or a [`Value`] could not become a type.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The text is not JSON (or not UTF-8): what was wrong, and where.
    Syntax { what: &'static str, at: usize },
    /// Arrays and objects nested deeper than [`MAX_DEPTH`].
    TooDeep { at: usize },
    /// A value of the wrong JSON type.
    Type {
        expected: &'static str,
        found: &'static str,
    },
    /// A number that does not fit the target integer type, or a map key
    /// that is not one.
    OutOfRange { value: String, target: &'static str },
    /// A struct field that is absent and has no default.
    MissingField(&'static str),
    /// A string or tag that names no variant of the target enum.
    UnknownVariant(String),
    /// An error inside the named struct field.
    Field {
        name: &'static str,
        source: Box<Error>,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax { what, at } => write!(f, "{what} at byte {at}"),
            Error::TooDeep { at } => {
                write!(f, "nesting deeper than {MAX_DEPTH} at byte {at}")
            }
            Error::Type { expected, found } => write!(f, "expected {expected}, found {found}"),
            Error::OutOfRange { value, target } => write!(f, "{value} does not fit {target}"),
            Error::MissingField(name) => write!(f, "missing field `{name}`"),
            Error::UnknownVariant(name) => write!(f, "unknown variant `{name}`"),
            Error::Field { name, source } => write!(f, "field `{name}`: {source}"),
        }
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::U64(_) | Value::I64(_) => "an integer",
            Value::F64(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }

    /// The error for finding `self` where `expected` was required.
    fn unexpected(&self, expected: &'static str) -> Error {
        Error::Type {
            expected,
            found: self.kind(),
        }
    }

    pub fn as_object(&self) -> Result<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Ok(fields),
            other => Err(other.unexpected("an object")),
        }
    }

    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::String(s) => Ok(s),
            other => Err(other.unexpected("a string")),
        }
    }
}

pub trait ToJson {
    fn to_json(&self) -> Value;
}

pub trait FromJson: Sized {
    fn from_json(value: &Value) -> Result<Self>;

    /// The value of a struct field that is absent from the input.
    fn missing(field: &'static str) -> Result<Self> {
        Err(Error::MissingField(field))
    }
}

/// Reads struct field `name` out of an object's members.
pub fn field<T: FromJson>(fields: &[(String, Value)], name: &'static str) -> Result<T> {
    match fields.iter().find(|(k, _)| k == name) {
        Some((_, value)) => T::from_json(value).map_err(|source| Error::Field {
            name,
            source: Box::new(source),
        }),
        None => T::missing(name),
    }
}

/// Implements [`ToJson`] and [`FromJson`] for a struct with named fields
/// (`struct T { a, b }`) or an enum of unit variants
/// (`enum T { A, B = "name_on_the_wire" }`). Every field must be listed:
/// `FromJson` builds `Self { .. }`, so a forgotten one does not compile.
/// Every field is required unless it is an `Option`: a file has one
/// version, the one this build writes.
#[macro_export]
macro_rules! impl_json {
    (struct $ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::Object(vec![$((
                    stringify!($field).to_owned(),
                    $crate::json::ToJson::to_json(&self.$field),
                )),*])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(value: &$crate::json::Value) -> $crate::json::Result<Self> {
                let fields = value.as_object()?;
                Ok(Self {
                    $($field: $crate::json::field(fields, stringify!($field))?),*
                })
            }
        }
    };
    (enum $ty:ident { $($variant:ident $(= $name:literal)?),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::String(match self {
                    $(Self::$variant => $crate::impl_json!(@name $variant $($name)?)),*
                }.to_owned())
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(value: &$crate::json::Value) -> $crate::json::Result<Self> {
                match value.as_str()? {
                    $(name if name == $crate::impl_json!(@name $variant $($name)?) => {
                        Ok(Self::$variant)
                    })*
                    other => Err($crate::json::Error::UnknownVariant(other.to_owned())),
                }
            }
        }
    };
    (@name $variant:ident) => { stringify!($variant) };
    (@name $variant:ident $name:literal) => { $name };
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(value: &Value) -> Result<Self> {
        Ok(value.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Value) -> Result<Self> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(other.unexpected("a boolean")),
        }
    }
}

/// A map key: JSON object keys are strings, so integers are written in
/// decimal.
pub trait MapKey: Sized {
    fn to_key(&self) -> String;
    fn from_key(key: &str) -> Result<Self>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Result<Self> {
        Ok(key.to_owned())
    }
}

fn out_of_range(value: impl fmt::Display, target: &'static str) -> Error {
    Error::OutOfRange {
        value: value.to_string(),
        target,
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(value: &Value) -> Result<Self> {
                match value {
                    Value::U64(n) => {
                        <$t>::try_from(*n).map_err(|_| out_of_range(n, stringify!($t)))
                    }
                    Value::I64(n) => {
                        <$t>::try_from(*n).map_err(|_| out_of_range(n, stringify!($t)))
                    }
                    other => Err(other.unexpected("an unsigned integer")),
                }
            }
        }
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(key: &str) -> Result<Self> {
                key.parse().map_err(|_| out_of_range(key, stringify!($t)))
            }
        }
    )*};
}

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl FromJson for $t {
            fn from_json(value: &Value) -> Result<Self> {
                match value {
                    Value::I64(n) => {
                        <$t>::try_from(*n).map_err(|_| out_of_range(n, stringify!($t)))
                    }
                    Value::U64(n) => {
                        <$t>::try_from(*n).map_err(|_| out_of_range(n, stringify!($t)))
                    }
                    other => Err(other.unexpected("an integer")),
                }
            }
        }
    )*};
}

unsigned!(u8, u16, u32, u64, usize);
signed!(i32, i64);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Value) -> Result<Self> {
        match value {
            Value::F64(x) => Ok(*x),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            other => Err(other.unexpected("a number")),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Value) -> Result<Self> {
        value.as_str().map(str::to_owned)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Value) -> Result<Self> {
        match value {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }

    fn missing(_field: &'static str) -> Result<Self> {
        Ok(None)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Value) -> Result<Self> {
        match value {
            Value::Array(items) => items.iter().map(T::from_json).collect(),
            other => Err(other.unexpected("an array")),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &Value) -> Result<Self> {
        match value {
            Value::Array(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            other => Err(other.unexpected("an array of 2")),
        }
    }
}

impl<K: MapKey + Ord, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_json()))
                .collect(),
        )
    }
}

impl<K: MapKey + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(value: &Value) -> Result<Self> {
        value
            .as_object()?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_json(v)?)))
            .collect()
    }
}

/// Compact JSON: no spaces, one line.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_json(), None, 0);
    out
}

/// Two-space indented JSON.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_json(), Some(2), 0);
    out
}

pub fn from_str<T: FromJson>(text: &str) -> Result<T> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value(0)?;
    parser.skip_space();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    T::from_json(&value)
}

/// [`from_str`] for the bytes of a file or a frame.
pub fn from_slice<T: FromJson>(bytes: &[u8]) -> Result<T> {
    let text = std::str::from_utf8(bytes).map_err(|e| Error::Syntax {
        what: "invalid UTF-8",
        at: e.valid_up_to(),
    })?;
    from_str(text)
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    const INFALLIBLE: &str = "writing to a String cannot fail";
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => write!(out, "{n}").expect(INFALLIBLE),
        Value::I64(n) => write!(out, "{n}").expect(INFALLIBLE),
        // `{:?}` of an f64 is its shortest round-trip form with a fraction
        // or an exponent. It turns to an exponent below 1e-4; the files
        // written so far did so below 1e-5, and plain `{}` (the same digits,
        // never an exponent) keeps that band as they have it.
        Value::F64(x) if (1e-5..1e-4).contains(&x.abs()) => write!(out, "{x}").expect(INFALLIBLE),
        Value::F64(x) if x.is_finite() => write!(out, "{x:?}").expect(INFALLIBLE),
        Value::F64(_) => out.push_str("null"),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            if !items.is_empty() {
                newline(out, indent, depth);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_string(out, key);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write_value(out, item, indent, depth + 1);
            }
            if !fields.is_empty() {
                newline(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &'static str) -> Error {
        Error::Syntax { what, at: self.pos }
    }

    fn skip_space(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.bytes.get(self.pos) == Some(&byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(Error::TooDeep { at: self.pos });
        }
        self.skip_space();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_space();
                if self.eat(b']') {
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_space();
                    if self.eat(b']') {
                        return Ok(Value::Array(items));
                    }
                    if !self.eat(b',') {
                        return Err(self.error("expected `,` or `]`"));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_space();
                if self.eat(b'}') {
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_space();
                    let key = self.string()?;
                    self.skip_space();
                    if !self.eat(b':') {
                        return Err(self.error("expected `:`"));
                    }
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_space();
                    if self.eat(b'}') {
                        return Ok(Value::Object(fields));
                    }
                    if !self.eat(b',') {
                        return Err(self.error("expected `,` or `}`"));
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII by the match");
        let parsed = if float {
            None
        } else if text.starts_with('-') {
            text.parse().ok().map(Value::I64)
        } else {
            text.parse().ok().map(Value::U64)
        };
        // An integer too wide for 64 bits still reads as a float.
        parsed
            .or_else(|| {
                text.parse()
                    .ok()
                    .filter(|x: &f64| x.is_finite())
                    .map(Value::F64)
            })
            .ok_or(Error::Syntax {
                what: "invalid number",
                at: start,
            })
    }

    fn hex4(&mut self) -> Result<u32> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .bytes
                .get(self.pos)
                .and_then(|&b| (b as char).to_digit(16))
                .ok_or_else(|| self.error("invalid \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn string(&mut self) -> Result<String> {
        if !self.eat(b'"') {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            // The input is a `str` and the run stops only at ASCII bytes, so
            // it ends on a character boundary.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8"))?,
            );
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let escape = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) {
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.error("lone surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("lone surrogate"));
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Colour {
        Red,
        DeepBlue,
    }
    impl_json!(
        enum Colour {
            Red,
            DeepBlue = "deep_blue",
        }
    );

    #[derive(Debug, Clone, PartialEq)]
    struct Inner {
        id: u64,
        ratio: f64,
    }
    impl_json!(struct Inner { id, ratio });

    #[derive(Debug, Clone, PartialEq)]
    struct Outer {
        name: String,
        colour: Colour,
        signed: i64,
        small: u8,
        flag: bool,
        maybe: Option<u32>,
        items: Vec<Inner>,
        pair: (u32, String),
        by_id: BTreeMap<u64, String>,
    }
    impl_json!(struct Outer { name, colour, signed, small, flag, maybe, items, pair, by_id });

    fn sample() -> Outer {
        Outer {
            name: "tab\t \"quoted\" back\\slash \u{1} é 🧬".into(),
            colour: Colour::DeepBlue,
            signed: i64::MIN,
            small: 255,
            flag: true,
            maybe: None,
            items: vec![
                Inner {
                    id: u64::MAX,
                    ratio: 0.1,
                },
                Inner {
                    id: 0,
                    ratio: -1.5e-300,
                },
            ],
            pair: (9, "nine".into()),
            by_id: BTreeMap::from([(3, "c".into()), (11, "k".into())]),
        }
    }

    #[test]
    fn a_struct_round_trips_compact_and_pretty() {
        let v = sample();
        assert_eq!(from_str::<Outer>(&to_string(&v)).unwrap(), v);
        assert_eq!(from_str::<Outer>(&to_string_pretty(&v)).unwrap(), v);
        assert_eq!(from_slice::<Outer>(to_string(&v).as_bytes()).unwrap(), v);
    }

    #[test]
    fn layout_is_the_one_the_files_were_written_with() {
        let v = Inner { id: 7, ratio: 2.0 };
        assert_eq!(to_string(&v), r#"{"id":7,"ratio":2.0}"#);
        assert_eq!(to_string_pretty(&v), "{\n  \"id\": 7,\n  \"ratio\": 2.0\n}");
        assert_eq!(to_string(&Colour::DeepBlue), r#""deep_blue""#);
        assert_eq!(to_string(&Colour::Red), r#""Red""#);
        assert_eq!(to_string(&Vec::<u8>::new()), "[]");
        assert_eq!(to_string_pretty(&vec![1u8, 2]), "[\n  1,\n  2\n]");
        assert_eq!(to_string(&BTreeMap::from([(5u32, true)])), r#"{"5":true}"#);
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string("a\nb"), r#""a\nb""#);
    }

    #[test]
    fn integers_and_floats_are_exact() {
        assert_eq!(to_string(&u64::MAX), "18446744073709551615");
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        for x in [
            0.1,
            1.0 / 3.0,
            1e21,
            5e-324,
            f64::MAX,
            123456.789e-7,
            3.3e-5,
            -0.0,
        ] {
            let text = to_string(&x);
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
        assert_eq!(to_string(&0.1), "0.1");
        assert_eq!(to_string(&1e21), "1e21");
        assert_eq!(to_string(&1e16), "1e16");
        assert_eq!(to_string(&1e15), "1000000000000000.0");
        assert_eq!(to_string(&0.00012), "0.00012");
        assert_eq!(to_string(&0.000012), "0.000012");
        assert_eq!(to_string(&-0.0000995), "-0.0000995");
        assert_eq!(to_string(&0.0000012), "1.2e-6");
        // An integer in the text reads as a float field.
        assert_eq!(from_str::<f64>("3").unwrap(), 3.0);
    }

    #[test]
    fn an_absent_field_is_none_or_fails() {
        let text = to_string(&sample()).replace(r#""maybe":null,"#, "");
        assert_eq!(from_str::<Outer>(&text).unwrap().maybe, None);
        assert_eq!(
            from_str::<Inner>(r#"{"id":1}"#),
            Err(Error::MissingField("ratio"))
        );
        // Unknown members are ignored: newer writers may add fields.
        assert!(from_str::<Inner>(r#"{"id":1,"ratio":1.0,"extra":[]}"#).is_ok());
    }

    #[test]
    fn wrong_types_and_ranges_are_typed_errors() {
        assert_eq!(
            from_str::<Inner>(r#"{"id":"7","ratio":1.0}"#),
            Err(Error::Field {
                name: "id",
                source: Box::new(Error::Type {
                    expected: "an unsigned integer",
                    found: "a string"
                })
            })
        );
        assert!(matches!(
            from_str::<Inner>("[1,2]"),
            Err(Error::Type { .. })
        ));
        assert!(matches!(
            from_str::<u8>("256"),
            Err(Error::OutOfRange { .. })
        ));
        assert!(matches!(
            from_str::<u64>("-1"),
            Err(Error::OutOfRange { .. })
        ));
        assert!(matches!(
            from_str::<i32>("4294967296"),
            Err(Error::OutOfRange { .. })
        ));
        assert!(matches!(from_str::<u64>("1.5"), Err(Error::Type { .. })));
        assert!(matches!(from_str::<f64>("null"), Err(Error::Type { .. })));
        assert!(matches!(
            from_str::<(u8, u8)>("[1]"),
            Err(Error::Type { .. })
        ));
        assert_eq!(
            from_str::<Colour>(r#""Green""#),
            Err(Error::UnknownVariant("Green".into()))
        );
        assert!(matches!(
            from_str::<BTreeMap<u32, bool>>(r#"{"x":true}"#),
            Err(Error::OutOfRange { .. })
        ));
    }

    #[test]
    fn truncated_input_is_a_syntax_error_at_every_cut() {
        let text = to_string_pretty(&sample());
        for cut in 0..text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            assert!(
                matches!(from_str::<Outer>(&text[..cut]), Err(Error::Syntax { .. })),
                "cut at {cut}"
            );
        }
        // Cut inside a multi-byte character: not UTF-8, still no panic.
        let bytes = text.as_bytes();
        let cut = (0..bytes.len())
            .find(|&i| !text.is_char_boundary(i))
            .unwrap();
        assert!(matches!(
            from_slice::<Outer>(&bytes[..cut]),
            Err(Error::Syntax {
                what: "invalid UTF-8",
                ..
            })
        ));
    }

    #[test]
    fn malformed_text_is_a_syntax_error() {
        for bad in [
            "",
            " ",
            "nul",
            "tru",
            "[1,]",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "{\"a\":1,}",
            "1 2",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "--1",
            "1e",
            "-",
            "1e999",
            "+1",
            ".5",
            "\u{7f}",
        ] {
            assert!(
                matches!(from_str::<Value>(bad), Err(Error::Syntax { .. })),
                "{bad:?}"
            );
        }
        assert_eq!(
            from_str::<String>(r#""\ud83e\uddec \u00e9 \/ \b\f""#).unwrap(),
            "🧬 é / \u{8}\u{c}"
        );
    }

    #[test]
    fn deep_nesting_is_refused_not_recursed_into() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(from_str::<Value>(&ok).is_ok());
        // A megabyte of `[` would overflow the stack of an uncapped parser.
        for open in ["[", "{\"k\":"] {
            let deep = open.repeat(1 << 20);
            assert!(matches!(
                from_str::<Value>(&deep),
                Err(Error::TooDeep { .. })
            ));
        }
    }

    #[test]
    fn errors_say_where() {
        assert_eq!(
            from_str::<Inner>(r#"{"id":1,"ratio":"x"}"#)
                .unwrap_err()
                .to_string(),
            "field `ratio`: expected a number, found a string"
        );
        assert_eq!(
            from_str::<Value>("[1,?]").unwrap_err().to_string(),
            "unexpected character at byte 3"
        );
    }
}
