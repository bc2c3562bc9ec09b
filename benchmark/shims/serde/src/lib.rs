//! Stand-in for `serde`: `Serialize`/`Deserialize` through a JSON-shaped
//! [`Value`] tree, with derive macros of the same names.
//!
//! The sandbox has no crate registry, so `benchmark/Cargo.toml` patches
//! `serde`, `serde_derive` and `serde_json` to the packages beside this one.
//! The crates only ever serialize to and from JSON, so the visitor
//! machinery of the published crate is replaced by one intermediate tree.
//! The JSON written follows the published crates' conventions (externally
//! tagged enums unless `tag` is given, `Option` as `null`, integer map keys
//! as strings), so files written by either build parse with the other.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;

pub use serde_derive::{Deserialize, Serialize};

/// One JSON value. Objects keep insertion order, as struct fields do.
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

impl Value {
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

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
}

/// Looks a key up in an object's fields.
pub fn find<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }

    pub fn expected(what: &str, got: &Value) -> Self {
        Error(format!("expected {what}, found {}", got.kind()))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

pub trait Serialize {
    fn to_value(&self) -> Value;
}

pub trait Deserialize: Sized {
    fn from_value(value: &Value) -> Result<Self, Error>;

    /// The value of a struct field that is absent from the input.
    fn missing(field: &str) -> Result<Self, Error> {
        Err(Error(format!("missing field `{field}`")))
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("a boolean", other)),
        }
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let wide = match value {
                    Value::U64(n) => *n,
                    other => return Err(Error::expected("an unsigned integer", other)),
                };
                <$t>::try_from(wide)
                    .map_err(|_| Error(format!("{wide} does not fit {}", stringify!($t))))
            }
        }
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(key: &str) -> Result<Self, Error> {
                key.parse().map_err(|_| Error(format!("map key `{key}` is not {}", stringify!($t))))
            }
        }
    )*};
}

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let wide = match value {
                    Value::I64(n) => *n,
                    Value::U64(n) => i64::try_from(*n)
                        .map_err(|_| Error(format!("{n} does not fit {}", stringify!($t))))?,
                    other => return Err(Error::expected("an integer", other)),
                };
                <$t>::try_from(wide)
                    .map_err(|_| Error(format!("{wide} does not fit {}", stringify!($t))))
            }
        }
    )*};
}

unsigned!(u8, u16, u32, u64, usize);
signed!(i8, i16, i32, i64, isize);

macro_rules! float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::F64(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::F64(x) => Ok(*x as $t),
                    Value::U64(n) => Ok(*n as $t),
                    Value::I64(n) => Ok(*n as $t),
                    other => Err(Error::expected("a number", other)),
                }
            }
        }
    )*};
}

float!(f32, f64);

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::String(s) => Ok(s.clone()),
            other => Err(Error::expected("a string", other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, Serialize::to_value)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn missing(_field: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::expected("an array", other)),
        }
    }
}

macro_rules! tuple {
    ($len:literal; $($name:ident $idx:tt),*) => {
        impl<$($name: Serialize),*> Serialize for ($($name,)*) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),*])
            }
        }
        impl<$($name: Deserialize),*> Deserialize for ($($name,)*) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Array(items) if items.len() == $len => {
                        Ok(($($name::from_value(&items[$idx])?,)*))
                    }
                    other => Err(Error::expected(concat!("an array of ", $len), other)),
                }
            }
        }
    };
}

tuple!(2; A 0, B 1);
tuple!(3; A 0, B 1, C 2);

/// A map key: JSON object keys are strings, so integers are written in
/// decimal.
pub trait MapKey: Sized {
    fn to_key(&self) -> String;
    fn from_key(key: &str) -> Result<Self, Error>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Result<Self, Error> {
        Ok(key.to_owned())
    }
}

impl<K: MapKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_value()))
                .collect(),
        )
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let fields = value
            .as_object()
            .ok_or_else(|| Error::expected("an object", value))?;
        fields
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?)))
            .collect()
    }
}

impl<K: MapKey + Eq + Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_value()))
                .collect(),
        )
    }
}

impl<K: MapKey + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let fields = value
            .as_object()
            .ok_or_else(|| Error::expected("an object", value))?;
        fields
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?)))
            .collect()
    }
}
