//! Offline stand-in for the subset of `serde` this workspace uses.
//!
//! The real serde's visitor-based data model is far larger than the
//! workspace needs (derived impls on plain named-field structs,
//! serialized to and from JSON by the sibling `serde_json` shim). This
//! shim therefore uses a simple value-tree model: [`Serialize`] lowers
//! to a [`Value`], [`Deserialize`] lifts from one, and the
//! `#[derive(Serialize, Deserialize)]` macros (from the sibling
//! `serde_derive` shim) generate field-by-field impls for structs with
//! named fields.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

/// A serialized value tree (JSON-shaped).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// What kind of value this is, with its article ("an array",
    /// "null", ...).
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a bool",
            Value::Number(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }

    /// Looks up a field of an object.
    ///
    /// # Errors
    ///
    /// Fails if `self` is not an object or lacks the field.
    pub fn get_field(&self, name: &str) -> Result<&Value, DeError> {
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| DeError(format!("missing field `{name}`"))),
            other => Err(DeError::expected(
                &format!("object with field `{name}`"),
                other,
            )),
        }
    }
}

/// Deserialization failure: a human-readable description.
#[derive(Clone, Debug)]
pub struct DeError(pub String);

impl DeError {
    /// A shape mismatch: `what` was expected where `got` is. It names
    /// the value's kind instead of echoing the value, which may be as
    /// large as its input.
    pub fn expected(what: &str, got: &Value) -> DeError {
        DeError(format!("expected {what}, got {}", got.kind()))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can lower themselves to a [`Value`].
pub trait Serialize {
    /// Lowers `self` to a value tree.
    fn to_value(&self) -> Value;
}

/// Types that can lift themselves from a [`Value`].
pub trait Deserialize: Sized {
    /// Lifts a value of `Self` out of a value tree.
    ///
    /// # Errors
    ///
    /// Fails with a description of the first mismatch encountered.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other)),
        }
    }
}

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    // Integers must round-trip exactly through the f64
                    // number representation.
                    Value::Number(n) => {
                        let cast = *n as $t;
                        if cast as f64 == *n {
                            Ok(cast)
                        } else {
                            Err(DeError(format!(
                                "number {n} does not fit in {}",
                                stringify!($t)
                            )))
                        }
                    }
                    other => Err(DeError::expected("number", other)),
                }
            }
        }
    )*};
}

impl_serde_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    // Floats accept any JSON number (f32 rounds).
                    Value::Number(n) => Ok(*n as $t),
                    other => Err(DeError::expected("number", other)),
                }
            }
        }
    )*};
}

impl_serde_float!(f32, f64);

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl Serialize for &str {
    fn to_value(&self) -> Value {
        Value::String((*self).to_owned())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
