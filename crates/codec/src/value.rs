//! A dynamic value tree, the common currency between SBI message structs
//! and the JSON codec (mirroring what `serde_json::Value` would be; we
//! hand-roll it to keep the serialization cost *measured*, not hidden
//! behind a dependency).

use core::fmt;

/// A JSON-like dynamic value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer (the numeric type SBI payloads need).
    U64(u64),
    /// Fractional number (trace timestamps in microseconds; SBI payloads
    /// never use this variant).
    F64(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered list.
    Array(Vec<Value>),
    /// Ordered key-value map (order preserved for deterministic output).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if numeric.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric (integers widen losslessly up to
    /// 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value as bool, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn field_of<'a, T>(
        &'a self,
        key: &str,
        expected: &'static str,
        as_t: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, FieldError> {
        self.get(key).and_then(as_t).ok_or_else(|| FieldError {
            key: key.to_owned(),
            expected,
        })
    }

    /// The string field `key` of an object value, owned.
    pub fn str_of(&self, key: &str) -> Result<String, FieldError> {
        self.field_of(key, "string", |v| v.as_str().map(str::to_owned))
    }

    /// The unsigned-integer field `key` of an object value.
    pub fn u64_of(&self, key: &str) -> Result<u64, FieldError> {
        self.field_of(key, "integer", Value::as_u64)
    }

    /// The numeric field `key` of an object value.
    pub fn f64_of(&self, key: &str) -> Result<f64, FieldError> {
        self.field_of(key, "numeric", Value::as_f64)
    }
}

/// A field the typed accessors ([`Value::str_of`], [`Value::u64_of`],
/// [`Value::f64_of`]) required but did not find with the expected type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// The field name looked up.
    pub(crate) key: String,
    /// The type it had to have (`string`, `integer`, `numeric`).
    pub(crate) expected: &'static str,
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "missing {} field `{}`", self.expected, self.key)
    }
}

impl From<FieldError> for String {
    fn from(e: FieldError) -> String {
        e.to_string()
    }
}

/// Builder shorthand for objects.
#[derive(Debug, Default)]
pub struct ObjectBuilder {
    fields: Vec<(String, Value)>,
}

impl ObjectBuilder {
    /// Creates an empty object builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a field.
    pub fn field(mut self, key: &str, value: Value) -> Self {
        self.fields.push((key.to_owned(), value));
        self
    }

    /// Adds a field only when `Some`.
    pub fn opt(self, key: &str, value: Option<Value>) -> Self {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// Finishes into a [`Value::Object`].
    pub fn build(self) -> Value {
        Value::Object(self.fields)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::json::to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_access() {
        let v = ObjectBuilder::new()
            .field("supi", Value::Str("imsi-2089300000001".into()))
            .field("pduSessionId", Value::U64(1))
            .build();
        assert_eq!(v.get("pduSessionId").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("supi").unwrap().as_str(), Some("imsi-2089300000001"));
        assert!(v.get("missing").is_none());
        assert!(Value::Null.get("x").is_none());
    }

    #[test]
    fn typed_accessors_name_the_missing_or_mistyped_key() {
        let v = ObjectBuilder::new()
            .field("supi", Value::Str("imsi-1".into()))
            .field("pduSessionId", Value::U64(1))
            .build();
        assert_eq!(v.str_of("supi").unwrap(), "imsi-1");
        assert_eq!(v.u64_of("pduSessionId"), Ok(1));
        assert_eq!(v.f64_of("pduSessionId"), Ok(1.0), "integers widen");
        let err = v.u64_of("supi").unwrap_err();
        assert_eq!((err.key.as_str(), err.expected), ("supi", "integer"));
        assert_eq!(
            String::from(v.str_of("absent").unwrap_err()),
            "missing string field `absent`"
        );
        assert!(Value::Null.f64_of("x").is_err());
    }

    #[test]
    fn opt_skips_none() {
        let v = ObjectBuilder::new()
            .opt("a", None)
            .opt("b", Some(Value::Bool(true)))
            .build();
        assert!(v.get("a").is_none());
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
    }
}
