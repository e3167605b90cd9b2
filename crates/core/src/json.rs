//! A minimal JSON value + serializer shared by the benchmark binaries
//! (machine-readable artifacts CI uploads per PR) and the job server
//! (`approxdd-server` response bodies and NDJSON event streams).
//! Hand-rolled because the workspace builds fully offline — no serde.
//!
//! Non-finite numbers serialize as `null` (JSON's grammar has no
//! NaN/Infinity), so every emitted document is valid JSON.

use std::collections::HashMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (serialized via shortest-roundtrip `f64` formatting;
    /// non-finite values degrade to `null` per JSON's grammar).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from key/value pairs (insertion order preserved).
    #[must_use]
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// An integer value (exact for |n| ≤ 2^53, plenty for node counts).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn int(n: usize) -> Self {
        Json::Num(n as f64)
    }

    /// A measurement histogram as `{"outcome": count}` with
    /// deterministically sorted keys.
    #[must_use]
    pub fn counts(counts: &HashMap<u64, usize>) -> Self {
        let mut entries: Vec<(u64, usize)> = counts.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable();
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::int(v)))
                .collect(),
        )
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_nested_values() {
        let v = Json::obj([
            ("name", Json::str("qsup_4x4_12_0")),
            ("qubits", Json::int(16)),
            ("exact", Json::Null),
            ("ok", Json::Bool(true)),
            ("series", Json::Arr(vec![Json::int(1), Json::Num(0.5)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"qsup_4x4_12_0","qubits":16,"exact":null,"ok":true,"series":[1,0.5]}"#
        );
    }

    #[test]
    fn escapes_strings_and_degrades_nonfinite() {
        assert_eq!(Json::str("a\"b\\c\nd").to_string(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn histograms_have_sorted_keys() {
        let counts = HashMap::from([(255u64, 2usize), (0, 3)]);
        assert_eq!(Json::counts(&counts).to_string(), r#"{"0":3,"255":2}"#);
    }
}
