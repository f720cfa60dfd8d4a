//! Attribute values, including the explicit missing value (`t[A] = _`).

use std::cmp::Ordering;
use std::fmt;

use crate::schema::AttrType;

/// A single attribute value of a tuple.
///
/// The paper's data model (Section 5.3) supports string, int, float/double,
/// and boolean attributes, plus the missing-value flag `_` (Definition 4.1).
/// `Null` is a first-class variant rather than an `Option` wrapper so that a
/// tuple is simply a `Vec<Value>` and projections stay allocation-free.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The missing value, written `_` in the paper.
    Null,
    /// 64-bit signed integer value.
    Int(i64),
    /// 64-bit floating point value. `NaN` is not a valid value; constructors
    /// and the CSV reader map non-finite floats to `Null`.
    Float(f64),
    /// Textual value.
    Text(String),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    /// Returns `true` iff this is the missing value.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The runtime type of the value, or `None` for `Null` (a missing value
    /// carries no type of its own; its type comes from the schema).
    pub fn attr_type(&self) -> Option<AttrType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(AttrType::Int),
            Value::Float(_) => Some(AttrType::Float),
            Value::Text(_) => Some(AttrType::Text),
            Value::Bool(_) => Some(AttrType::Bool),
        }
    }

    /// Numeric view of the value: `Int` and `Float` map to `f64`, everything
    /// else (including `Null`) maps to `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Textual view of the value, without conversion.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Boolean view of the value, without conversion.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses a raw string into a value of the given attribute type.
    ///
    /// Empty strings and the conventional null spellings (`_`, `?`, `NULL`,
    /// `null`, `NA`, `N/A`) parse to `Null` regardless of the target type.
    /// A string that fails to parse as the target type falls back to `Null`
    /// rather than erroring: real-world CSVs routinely contain stray tokens,
    /// and the imputation problem treats unparseable entries as missing.
    pub fn parse(raw: &str, ty: AttrType) -> Value {
        let raw = raw.trim();
        if is_null_token(raw) {
            return Value::Null;
        }
        match ty {
            AttrType::Int => raw.parse::<i64>().map(Value::Int).unwrap_or(Value::Null),
            AttrType::Float => match raw.parse::<f64>() {
                Ok(f) if f.is_finite() => Value::Float(f),
                _ => Value::Null,
            },
            AttrType::Bool => match raw.to_ascii_lowercase().as_str() {
                "true" | "t" | "yes" | "y" | "1" => Value::Bool(true),
                "false" | "f" | "no" | "n" | "0" => Value::Bool(false),
                _ => Value::Null,
            },
            AttrType::Text => Value::Text(raw.to_owned()),
        }
    }

    /// Converts the value to attribute type `ty`. A CSV header without
    /// type annotations reads every column as text; this re-types its
    /// values under a model's schema. A value that already has type `ty`
    /// is kept, an integer widens to a float, and anything else is parsed
    /// again from its rendering ([`Value::parse`]).
    pub fn coerce(&self, ty: AttrType) -> Value {
        match (self, ty) {
            (Value::Null, _) => Value::Null,
            (Value::Text(_), AttrType::Text)
            | (Value::Int(_), AttrType::Int)
            | (Value::Float(_), AttrType::Float)
            | (Value::Bool(_), AttrType::Bool) => self.clone(),
            (Value::Int(n), AttrType::Float) => Value::Float(*n as f64),
            _ => Value::parse(&self.render(), ty),
        }
    }

    /// Renders the value the way the CSV writer and the paper's tables do:
    /// `_` for missing values, bare literals otherwise.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "_".to_owned(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format_float(*f),
            Value::Text(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
        }
    }

    /// Total ordering used for deterministic sorting of candidate values.
    ///
    /// Orders by variant first (`Null < Bool < Int/Float < Text`), then by
    /// payload. `Int` and `Float` compare numerically across variants so that
    /// `Int(2) == Float(2.0)` sort adjacently.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Text(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                // Both numeric; payloads are finite by construction.
                a.as_f64()
                    .unwrap()
                    .partial_cmp(&b.as_f64().unwrap())
                    .unwrap_or(Ordering::Equal)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        if v.is_finite() {
            Value::Float(v)
        } else {
            Value::Null
        }
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Recognizes the conventional spellings of a missing value in raw data.
pub fn is_null_token(raw: &str) -> bool {
    matches!(raw, "" | "_" | "?" | "NULL" | "null" | "NA" | "na" | "N/A" | "n/a")
}

/// Formats a float without scientific notation and without trailing noise:
/// integers render bare (`3`), everything else with up to 6 significant
/// decimals (`3.14`).
fn format_float(f: f64) -> String {
    if f == f.trunc() && f.abs() < 1e15 {
        format!("{}", f as i64)
    } else {
        let s = format!("{f:.6}");
        let s = s.trim_end_matches('0');
        s.trim_end_matches('.').to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_null() {
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
        assert!(!Value::Text(String::new()).is_null());
    }

    #[test]
    fn parse_int() {
        assert_eq!(Value::parse("42", AttrType::Int), Value::Int(42));
        assert_eq!(Value::parse(" -7 ", AttrType::Int), Value::Int(-7));
        assert_eq!(Value::parse("abc", AttrType::Int), Value::Null);
        assert_eq!(Value::parse("", AttrType::Int), Value::Null);
    }

    #[test]
    fn parse_float() {
        assert_eq!(Value::parse("3.25", AttrType::Float), Value::Float(3.25));
        assert_eq!(Value::parse("inf", AttrType::Float), Value::Null);
        assert_eq!(Value::parse("NaN", AttrType::Float), Value::Null);
    }

    #[test]
    fn parse_bool() {
        assert_eq!(Value::parse("true", AttrType::Bool), Value::Bool(true));
        assert_eq!(Value::parse("No", AttrType::Bool), Value::Bool(false));
        assert_eq!(Value::parse("maybe", AttrType::Bool), Value::Null);
    }

    #[test]
    fn parse_null_tokens() {
        for tok in ["_", "?", "NULL", "NA", "n/a", ""] {
            assert_eq!(Value::parse(tok, AttrType::Text), Value::Null, "{tok:?}");
        }
    }

    #[test]
    fn text_preserves_content() {
        assert_eq!(
            Value::parse("Los Angeles", AttrType::Text),
            Value::Text("Los Angeles".into())
        );
    }

    #[test]
    fn coerce_retypes_untyped_values() {
        assert_eq!(Value::from("42").coerce(AttrType::Int), Value::Int(42));
        assert_eq!(Value::from("2.5").coerce(AttrType::Float), Value::Float(2.5));
        assert_eq!(Value::from("yes").coerce(AttrType::Bool), Value::Bool(true));
        assert_eq!(Value::from("x").coerce(AttrType::Int), Value::Null);
        assert_eq!(Value::Int(3).coerce(AttrType::Float), Value::Float(3.0));
        assert_eq!(Value::Int(3).coerce(AttrType::Text), Value::Text("3".into()));
        assert_eq!(Value::from("Salerno").coerce(AttrType::Text), Value::from("Salerno"));
        assert_eq!(Value::Null.coerce(AttrType::Int), Value::Null);
    }

    #[test]
    fn render_round_trip() {
        assert_eq!(Value::Int(5).render(), "5");
        assert_eq!(Value::Float(2.5).render(), "2.5");
        assert_eq!(Value::Float(2.0).render(), "2");
        assert_eq!(Value::Null.render(), "_");
        assert_eq!(Value::Bool(true).render(), "true");
    }

    #[test]
    fn as_f64_views() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::Text("3".into()).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Value::from(f64::NAN), Value::Null);
        assert_eq!(Value::from(f64::INFINITY), Value::Null);
        assert_eq!(Value::from(2.0), Value::Float(2.0));
    }

    #[test]
    fn total_cmp_orders_variants() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Null.total_cmp(&Value::Int(0)), Less);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Equal);
        assert_eq!(Value::Int(3).total_cmp(&Value::Float(2.5)), Greater);
        assert_eq!(
            Value::Text("a".into()).total_cmp(&Value::Text("b".into())),
            Less
        );
        assert_eq!(Value::Bool(false).total_cmp(&Value::Int(0)), Less);
    }
}
