//! Offline stand-in for the `serde` crate.
//!
//! The build container has no network access and no crates-io mirror, so the
//! workspace patches `serde` with this minimal, dependency-free replacement
//! (see `offline/README.md`). It keeps the two names the codebase uses —
//! the `Serialize` / `Deserialize` traits and their derive macros — but
//! swaps serde's visitor architecture for a much simpler self-describing
//! [`Value`] data model: serializing produces a `Value` tree, deserializing
//! consumes one. `serde_json` (also shimmed) converts `Value` trees to and
//! from JSON text.
//!
//! The derive macros cover exactly the shapes this workspace uses: named
//! structs, tuple/newtype structs, and enums with unit, newtype, tuple and
//! struct variants (externally tagged, as real serde encodes them in JSON).

use std::collections::BTreeSet;
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing value tree — the whole data model of this shim.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer (always < 0; non-negative integers use [`Value::U64`]).
    I64(i64),
    /// Double-precision floating-point number (every float the JSON
    /// parser reads).
    F64(f64),
    /// Single-precision floating-point number, kept apart from
    /// [`Value::F64`] so an emitter can print the shortest text that
    /// identifies the `f32` rather than that of its widened `f64`.
    F32(f32),
    /// String.
    Str(String),
    /// Ordered sequence.
    Array(Vec<Value>),
    /// Key–value map in insertion order.
    Object(Vec<(String, Value)>),
}

/// Serialization/deserialization failure.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error with the given message.
    pub fn msg(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }

    /// "expected X while deserializing T" helper used by generated code.
    pub fn expected(what: &str, ty: &str) -> Self {
        Error::msg(format!("expected {what} while deserializing {ty}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Serializes `self` into a [`Value`] tree.
pub trait Serialize {
    /// Converts to the data model.
    fn serialize(&self) -> Value;
}

/// Reconstructs `Self` from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Converts from the data model.
    fn deserialize(v: &Value) -> Result<Self, Error>;
}

// ---- helpers used by derive-generated code -------------------------------

/// Wraps a data-carrying enum variant: `{"Tag": inner}`.
pub fn variant(tag: &str, inner: Value) -> Value {
    Value::Object(vec![(tag.to_string(), inner)])
}

/// Expects an object, returning its fields.
pub fn expect_object<'a>(v: &'a Value, ty: &str) -> Result<&'a [(String, Value)], Error> {
    match v {
        Value::Object(fields) => Ok(fields),
        _ => Err(Error::expected("object", ty)),
    }
}

/// Expects an array of exactly `len` elements.
pub fn expect_tuple<'a>(v: &'a Value, len: usize, ty: &str) -> Result<&'a [Value], Error> {
    match v {
        Value::Array(items) if items.len() == len => Ok(items),
        Value::Array(items) => Err(Error::msg(format!(
            "expected {len} elements while deserializing {ty}, got {}",
            items.len()
        ))),
        _ => Err(Error::expected("array", ty)),
    }
}

/// Looks up a required field and deserializes it.
pub fn take_field<T: Deserialize>(
    fields: &[(String, Value)],
    key: &str,
    ty: &str,
) -> Result<T, Error> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, v)) => {
            T::deserialize(v).map_err(|e| Error::msg(format!("field `{key}` of {ty}: {e}")))
        }
        None => Err(Error::msg(format!(
            "missing field `{key}` while deserializing {ty}"
        ))),
    }
}

// ---- primitive impls -----------------------------------------------------

macro_rules! ser_de_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::msg(format!("{n} out of range for {}", stringify!($t)))),
                    _ => Err(Error::expected("unsigned integer", stringify!($t))),
                }
            }
        }
    )*};
}
ser_de_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_de_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                let n = *self as i64;
                if n < 0 { Value::I64(n) } else { Value::U64(n as u64) }
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let wide: i64 = match v {
                    Value::I64(n) => *n,
                    Value::U64(n) => i64::try_from(*n)
                        .map_err(|_| Error::msg(format!("{n} out of range for {}", stringify!($t))))?,
                    _ => return Err(Error::expected("integer", stringify!($t))),
                };
                <$t>::try_from(wide)
                    .map_err(|_| Error::msg(format!("{wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
ser_de_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::F64(x) => Ok(*x),
            Value::F32(x) => Ok(f64::from(*x)),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            _ => Err(Error::expected("number", "f64")),
        }
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::F32(*self)
    }
}

impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::F32(x) => Ok(*x),
            other => f64::deserialize(other).map(|x| x as f32),
        }
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::expected("boolean", "bool")),
        }
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::expected("string", "String")),
        }
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().expect("one char")),
            _ => Err(Error::expected("single-character string", "char")),
        }
    }
}

// ---- container impls -----------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::deserialize).collect(),
            _ => Err(Error::expected("array", "Vec")),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let items = expect_tuple(v, N, "array")?;
        let parsed: Vec<T> = items.iter().map(T::deserialize).collect::<Result<_, _>>()?;
        parsed
            .try_into()
            .map_err(|_| Error::msg(format!("expected {N} elements")))
    }
}

impl<K: fmt::Display + Ord, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn serialize(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.serialize()))
                .collect(),
        )
    }
}

impl<K: std::str::FromStr + Ord, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, val)| {
                    let key = k
                        .parse::<K>()
                        .map_err(|_| Error::msg(format!("unparseable map key `{k}`")))?;
                    Ok((key, V::deserialize(val)?))
                })
                .collect(),
            _ => Err(Error::expected("object", "BTreeMap")),
        }
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::deserialize).collect(),
            _ => Err(Error::expected("array", "BTreeSet")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(inner) => inner.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

macro_rules! ser_de_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self) -> Value {
                Value::Array(vec![$(self.$n.serialize()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $n; 1 })+;
                let items = expect_tuple(v, LEN, "tuple")?;
                Ok(($($t::deserialize(&items[$n])?,)+))
            }
        }
    )*};
}
ser_de_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl Serialize for std::time::Duration {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("secs".to_string(), Value::U64(self.as_secs())),
            (
                "nanos".to_string(),
                Value::U64(u64::from(self.subsec_nanos())),
            ),
        ])
    }
}

impl Deserialize for std::time::Duration {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let fields = expect_object(v, "Duration")?;
        let secs: u64 = take_field(fields, "secs", "Duration")?;
        let nanos: u32 = take_field(fields, "nanos", "Duration")?;
        Ok(std::time::Duration::new(secs, nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::deserialize(&42u64.serialize()).unwrap(), 42);
        assert_eq!(i32::deserialize(&(-7i32).serialize()).unwrap(), -7);
        assert_eq!(f32::deserialize(&1.5f32.serialize()).unwrap(), 1.5);
        assert_eq!(f32::deserialize(&Value::F64(0.1)).unwrap(), 0.1f32);
        assert_eq!(
            f64::deserialize(&0.1f32.serialize()).unwrap(),
            f64::from(0.1f32)
        );
        assert!(bool::deserialize(&true.serialize()).unwrap());
        assert_eq!(
            String::deserialize(&"hi".to_string().serialize()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u8, 2, 3];
        assert_eq!(Vec::<u8>::deserialize(&v.serialize()).unwrap(), v);
        let o: Option<u8> = None;
        assert_eq!(Option::<u8>::deserialize(&o.serialize()).unwrap(), None);
        let t = (1u8, "x".to_string());
        assert_eq!(<(u8, String)>::deserialize(&t.serialize()).unwrap(), t);
        let s: BTreeSet<u16> = [3u16, 1, 2].into_iter().collect();
        assert_eq!(BTreeSet::<u16>::deserialize(&s.serialize()).unwrap(), s);
    }

    #[test]
    fn out_of_range_integers_error() {
        assert!(u8::deserialize(&Value::U64(300)).is_err());
        assert!(u64::deserialize(&Value::I64(-1)).is_err());
    }
}
