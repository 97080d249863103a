//! Attribute values.
//!
//! The paper assumes a countably infinite set `U` of constants (Section 2).
//! We realise `U` as the tagged union [`Value`], covering the constant kinds
//! that appear in the paper's examples: strings (`"video game"`,
//! `"programmer"`, names, titles), integers (`is_fake = 1`, release years),
//! booleans, and floating-point numbers (ratings).
//!
//! [`Value`] implements a *total* order (floats via [`f64::total_cmp`]) so the
//! built-in predicates `<, >, ≤, ≥` of GDCs (Section 7.1) are well defined on
//! every pair of values. Cross-kind comparisons order by kind tag first
//! (except int/float, which compare numerically); the paper never compares
//! constants of different kinds, but a total order keeps the GDC reasoning
//! engine simple and deterministic.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A constant from the paper's universe `U`.
///
/// Equality is [`Ord::cmp`]` == Equal`, and a mixed `Int`/`Float` pair
/// compares through the integer's `f64` image. Above 2⁵³ that image is
/// lossy, so mixed equality is **not transitive** there:
/// `Int(2⁵³) == Float(2⁵³ as f64) == Int(2⁵³ + 1)` while the two integers
/// differ. [`Hash`] and [`Value::index_key`] both read the
/// same image, so values that are `==` always share a hash and a key;
/// values that share one need not be `==`.
#[derive(Debug)]
pub enum Value {
    /// Boolean constant.
    Bool(bool),
    /// 64-bit signed integer constant.
    Int(i64),
    /// Double-precision float constant (totally ordered via `total_cmp`).
    Float(f64),
    /// String constant.
    Str(String),
}

impl Value {
    /// Short tag used to order values of different kinds.
    fn kind_tag(&self) -> u8 {
        match self {
            Value::Bool(_) => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// Returns the string content if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean content if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A canonical 64-bit key with `a == b ⟹ a.index_key() == b.index_key()`
    /// — the key of [`Graph`](crate::Graph)'s value index, and what `Hash`
    /// feeds for numerics. Numerics key on the bits of their `f64` image,
    /// which is exactly what the mixed `Int`/`Float` comparison reads
    /// (`Int(1)` and `Float(1.0)` coincide; `Float(-0.0)` and distinct NaNs
    /// keep their own bits, as under `total_cmp`); booleans on 0/1; strings
    /// on a fixed-key hash, so the key is the same in every process.
    /// Distinct values may share a key: whoever probes by it must confirm
    /// candidates with `==`.
    pub fn index_key(&self) -> u64 {
        match self {
            Value::Bool(b) => u64::from(*b),
            Value::Int(i) => (*i as f64).to_bits(),
            Value::Float(f) => f.to_bits(),
            Value::Str(s) => {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                h.write(s.as_bytes());
                h.finish()
            }
        }
    }
}

impl Clone for Value {
    fn clone(&self) -> Value {
        match self {
            Value::Bool(b) => Value::Bool(*b),
            Value::Int(i) => Value::Int(*i),
            Value::Float(f) => Value::Float(*f),
            Value::Str(s) => Value::Str(s.clone()),
        }
    }

    /// A string over a string is copied into the buffer it replaces — no
    /// allocator call while the new text fits — which is what makes an
    /// attribute overwrite ([`Graph::set_attr`](crate::Graph::set_attr),
    /// a `SetAttr` delta) a write in place.
    fn clone_from(&mut self, source: &Value) {
        match (self, source) {
            (Value::Str(old), Value::Str(new)) => old.clone_from(new),
            (this, _) => *this = source.clone(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            // Mixed int/float compare numerically so that e.g. GDC literals
            // `x.rating <= 5` work regardless of how the data was loaded.
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => a.kind_tag().cmp(&b.kind_tag()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Bool(b) => {
                0u8.hash(state);
                b.hash(state);
            }
            // Every numeric hashes the bits of its `f64` image, so
            // `Int(a) == Float(b)` implies equal hashes at any magnitude.
            Value::Int(_) | Value::Float(_) => {
                1u8.hash(state);
                self.index_key().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "\"{s}\""),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn equality_within_kind() {
        assert_eq!(Value::from(3), Value::from(3));
        assert_ne!(Value::from(3), Value::from(4));
        assert_eq!(Value::from("a"), Value::from("a"));
        assert_ne!(Value::from("a"), Value::from("b"));
        assert_eq!(Value::from(true), Value::from(true));
    }

    #[test]
    fn int_float_numeric_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_ne!(Value::Int(2), Value::Float(2.5));
        assert_eq!(h(&Value::Int(2)), h(&Value::Float(2.0)));
    }

    #[test]
    fn total_order_on_floats() {
        let nan = Value::Float(f64::NAN);
        // total_cmp gives NaN a fixed place; comparing must not panic and
        // must be reflexive.
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Float(1.0) < Value::Float(2.0));
    }

    #[test]
    fn mixed_numeric_order() {
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(0.5) < Value::Int(1));
        assert_eq!(Value::Int(3).cmp(&Value::Float(3.0)), Ordering::Equal);
    }

    #[test]
    fn cross_kind_order_is_total_and_antisymmetric() {
        let vals = [
            Value::from(false),
            Value::from(true),
            Value::from(-1),
            Value::from(10),
            Value::from(1.5),
            Value::from("x"),
        ];
        for a in &vals {
            for b in &vals {
                match a.cmp(b) {
                    Ordering::Less => assert_eq!(b.cmp(a), Ordering::Greater),
                    Ordering::Greater => assert_eq!(b.cmp(a), Ordering::Less),
                    Ordering::Equal => assert_eq!(b.cmp(a), Ordering::Equal),
                }
            }
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::from(3).to_string(), "3");
        assert_eq!(Value::from("a").to_string(), "\"a\"");
        assert_eq!(Value::from(true).to_string(), "true");
        assert_eq!(Value::from(2.5).to_string(), "2.5");
    }

    #[test]
    fn hash_consistent_with_eq() {
        const P53: i64 = 1 << 53;
        let nan = f64::NAN;
        let pairs = [
            (Value::from(5), Value::from(5)),
            (Value::from("k"), Value::from("k")),
            (Value::Int(7), Value::Float(7.0)),
            // `P53 + 1` has no `f64` of its own: it compares (and must
            // hash) as its image, `P53 as f64`.
            (Value::Int(P53 + 1), Value::Float(P53 as f64)),
            (Value::Int(P53), Value::Float(P53 as f64)),
            (Value::Int(0), Value::Float(0.0)),
            (Value::Float(-0.0), Value::Float(-0.0)),
            (Value::Float(nan), Value::Float(nan)),
            (Value::Int(i64::MAX), Value::Float(i64::MAX as f64)),
            (Value::Int(i64::MIN), Value::Float(i64::MIN as f64)),
        ];
        for (a, b) in pairs {
            assert_eq!(a, b);
            assert_eq!(h(&a), h(&b), "{a} / {b}");
            assert_eq!(a.index_key(), b.index_key(), "{a} / {b}");
        }
        // Not transitive up there: both integers equal the float, not each
        // other. `-0.0` is its own value under `total_cmp`.
        assert_ne!(Value::Int(P53 + 1), Value::Int(P53));
        assert_ne!(Value::Float(-0.0), Value::Int(0));
        assert_ne!(Value::Float(-0.0), Value::Float(0.0));
        // Kinds stay apart under `==` even where keys coincide.
        assert_ne!(Value::from(true), Value::from(1));
        assert_ne!(Value::from("1"), Value::from(1));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::from(1).as_str(), None);
        assert_eq!(Value::from(true).as_bool(), Some(true));
    }
}
