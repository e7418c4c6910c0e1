//! Property maps: the `attributes` of the paper's attributed graphs.
//!
//! A [`PropertyMap`] is a small, deterministic (sorted-key) map from
//! property name to [`Value`]. Determinism matters: table rendering and
//! query result ordering must be stable across runs for the
//! reproduction harness to be diffable.

use crate::value::Value;
use serde::{Content, DeError, Deserialize, Serialize};
use std::fmt;

/// A sorted map from property name to value.
///
/// Stored as a flat `Vec` of entries sorted by name: graphs carry one
/// map per node and edge, mostly with one to three keys, where a
/// binary search over a `Vec` is as fast as a tree and a one-entry map
/// costs one small allocation instead of a whole B-tree leaf.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PropertyMap {
    entries: Vec<(String, Value)>,
}

/// The iterator behind [`PropertyMap::iter`] and `&PropertyMap`'s
/// `IntoIterator`.
pub type Iter<'a> = std::iter::Map<
    std::slice::Iter<'a, (String, Value)>,
    fn(&(String, Value)) -> (&String, &Value),
>;

impl PropertyMap {
    /// Creates an empty property map.
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, key: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    /// Sets `key` to `value`, returning the previous value if any.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) -> Option<Value> {
        let key = key.into();
        let value = value.into();
        match self.position(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Gets the value stored under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.position(key).ok().map(|i| &self.entries[i].1)
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.position(key).ok().map(|i| self.entries.remove(i).1)
    }

    /// True when `key` is present.
    pub fn contains(&self, key: &str) -> bool {
        self.position(key).is_ok()
    }

    /// Number of properties.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no properties.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(name, value)` pairs in sorted name order.
    pub fn iter(&self) -> Iter<'_> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates property names in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Builder-style insertion, for literals in tests and examples.
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.set(key, value);
        self
    }
}

impl fmt::Display for PropertyMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

/// Later entries win over earlier ones with the same name, as they
/// would inserting one by one.
impl FromIterator<(String, Value)> for PropertyMap {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut entries: Vec<(String, Value)> = iter.into_iter().collect();
        // Stable: equal names keep their input order, so the last one
        // of each run is the last written.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out: Vec<(String, Value)> = Vec::with_capacity(entries.len());
        for entry in entries {
            match out.last_mut() {
                Some(last) if last.0 == entry.0 => *last = entry,
                _ => out.push(entry),
            }
        }
        Self { entries: out }
    }
}

impl<'a> IntoIterator for &'a PropertyMap {
    type Item = (&'a String, &'a Value);
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Serialized as `{"entries": {name: value, ...}}`, the shape the
/// map-backed representation had, so stored and wire forms are
/// unchanged.
impl Serialize for PropertyMap {
    fn serialize_content(&self) -> Content {
        let entries = self
            .entries
            .iter()
            .map(|(k, v)| (Content::Str(k.clone()), v.serialize_content()))
            .collect();
        Content::Map(vec![(
            Content::Str("entries".into()),
            Content::Map(entries),
        )])
    }
}

impl Deserialize for PropertyMap {
    fn deserialize_content(c: &Content) -> Result<Self, DeError> {
        let map = c
            .as_map()
            .ok_or_else(|| DeError::expected("map", c.kind()))?;
        let entries = serde::field(map, "entries")?;
        entries
            .as_map()
            .ok_or_else(|| DeError::expected("map", entries.kind()))?
            .iter()
            .map(|(k, v)| match k {
                Content::Str(s) => Ok((s.clone(), Value::deserialize_content(v)?)),
                other => Err(DeError::expected("string key", other.kind())),
            })
            .collect()
    }
}

/// Builds a [`PropertyMap`] from `key => value` pairs.
///
/// ```
/// use gdm_core::{props, Value};
/// let p = props! { "name" => "alice", "age" => 30 };
/// assert_eq!(p.get("age"), Some(&Value::Int(30)));
/// ```
#[macro_export]
macro_rules! props {
    () => { $crate::PropertyMap::new() };
    ($($key:expr => $value:expr),+ $(,)?) => {{
        let mut map = $crate::PropertyMap::new();
        $(map.set($key, $value);)+
        map
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut p = PropertyMap::new();
        assert!(p.set("a", 1).is_none());
        assert_eq!(p.set("a", 2), Some(Value::Int(1)));
        assert_eq!(p.get("a"), Some(&Value::Int(2)));
        assert_eq!(p.remove("a"), Some(Value::Int(2)));
        assert!(p.is_empty());
    }

    #[test]
    fn iteration_is_sorted() {
        let p = props! { "z" => 1, "a" => 2, "m" => 3 };
        let keys: Vec<_> = p.keys().collect();
        assert_eq!(keys, vec!["a", "m", "z"]);
    }

    #[test]
    fn display_format() {
        let p = props! { "name" => "bob", "age" => 4 };
        assert_eq!(p.to_string(), "{age: 4, name: bob}");
    }

    #[test]
    fn builder_style() {
        let p = PropertyMap::new().with("x", 1).with("y", "two");
        assert_eq!(p.len(), 2);
        assert_eq!(p.get("y"), Some(&Value::Str("two".into())));
    }

    #[test]
    fn from_iter_sorts_and_last_write_wins() {
        let p: PropertyMap = [("b", 1), ("a", 2), ("b", 3)]
            .into_iter()
            .map(|(k, v)| (k.to_owned(), Value::from(v)))
            .collect();
        let pairs: Vec<(&String, &Value)> = p.iter().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!((pairs[0].0.as_str(), pairs[0].1), ("a", &Value::Int(2)));
        assert_eq!((pairs[1].0.as_str(), pairs[1].1), ("b", &Value::Int(3)));
    }

    #[test]
    fn serde_shape_is_a_map_of_entries() {
        let p = props! { "name" => "bob", "age" => 4 };
        let content = p.serialize_content();
        let expected = Content::Map(vec![(
            Content::Str("entries".into()),
            Content::Map(vec![
                (
                    Content::Str("age".into()),
                    Value::from(4).serialize_content(),
                ),
                (
                    Content::Str("name".into()),
                    Value::from("bob").serialize_content(),
                ),
            ]),
        )]);
        assert_eq!(content, expected);
        assert_eq!(PropertyMap::deserialize_content(&content).unwrap(), p);
    }

    #[test]
    fn empty_macro() {
        let p = props! {};
        assert!(p.is_empty());
    }
}
