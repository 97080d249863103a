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
//!
//! A string constant's [`Text`] keeps up to 15 bytes inside the value, so
//! the short strings that make up most of `U` in practice (tags, tiers,
//! `"video game"`) cost no heap block of their own.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// The most bytes a [`Text`] holds in place.
const INLINE: usize = 15;

/// The text of a [`Value::Str`]. A new text of up to 15 bytes sits in the
/// value itself; a longer one keeps a heap `String`, and any text written
/// over it later reuses that buffer while it fits ([`Text::clone_from`]).
/// Equality, order, [`Hash`], [`Display`](fmt::Display) and
/// [`Debug`](fmt::Debug) read only the text, whichever form holds it: each
/// is what the same text in a `String` gives. A `Text` is 24 bytes, as a
/// `String` is, and so is a [`Value`] holding one.
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the text, at most [`INLINE`] bytes.
    Inline { bytes: [u8; INLINE], len: Len },
    /// Text that was longer than [`INLINE`] bytes when its buffer was made.
    Heap(String),
}

/// An inline text's length. Its sixteen values leave the rest of the byte
/// free for the enum tags around it, and bound `bytes[..len]` by type.
#[derive(Clone, Copy)]
#[repr(u8)]
enum Len {
    L0,
    L1,
    L2,
    L3,
    L4,
    L5,
    L6,
    L7,
    L8,
    L9,
    L10,
    L11,
    L12,
    L13,
    L14,
    L15,
}

/// `LENS[n]` is the [`Len`] of `n`, for every `n ≤ INLINE`.
const LENS: [Len; INLINE + 1] = {
    use Len::*;
    [
        L0, L1, L2, L3, L4, L5, L6, L7, L8, L9, L10, L11, L12, L13, L14, L15,
    ]
};

impl Text {
    /// `s`, in place if it fits, else copied to the heap.
    pub(crate) fn new(s: &str) -> Text {
        match LENS.get(s.len()) {
            Some(&len) => {
                let mut bytes = [0; INLINE];
                bytes[..s.len()].copy_from_slice(s.as_bytes());
                Text(Repr::Inline { bytes, len })
            }
            None => Text(Repr::Heap(s.to_owned())),
        }
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // Inline bytes are a whole `&str` a constructor copied.
            Repr::Inline { bytes, len } => {
                std::str::from_utf8(&bytes[..*len as usize]).expect("inline text is UTF-8")
            }
            Repr::Heap(s) => s,
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { bytes, len } => &bytes[..*len as usize],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// Does the text live in a buffer of its own, one made for more than
    /// 15 bytes?
    pub(crate) fn on_heap(&self) -> bool {
        matches!(self.0, Repr::Heap(_))
    }
}

impl Clone for Text {
    fn clone(&self) -> Text {
        match &self.0 {
            Repr::Heap(s) => Text::new(s),
            inline => Text(inline.clone()),
        }
    }

    /// Text over a heap text is copied into its buffer — no allocator
    /// call while it fits, whatever its length; over an inline text it is
    /// cloned.
    fn clone_from(&mut self, source: &Text) {
        match &mut self.0 {
            Repr::Heap(old) => {
                old.clear();
                old.push_str(source);
            }
            this => *this = source.clone().0,
        }
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

/// A short string is copied in place and its buffer freed; a long one is
/// kept as it is.
impl From<String> for Text {
    fn from(s: String) -> Text {
        if s.len() <= INLINE {
            Text::new(&s)
        } else {
            Text(Repr::Heap(s))
        }
    }
}

impl From<Cow<'_, str>> for Text {
    fn from(s: Cow<'_, str>) -> Text {
        match s {
            Cow::Borrowed(s) => Text::new(s),
            Cow::Owned(s) => Text::from(s),
        }
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Text) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `str`'s order, which is the order of the bytes.
impl Ord for Text {
    fn cmp(&self, other: &Text) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

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
    Str(Text),
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
            Value::Str(s) => Some(s.as_str()),
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

    /// A string over a string is written where the old text lies ([`Text`]'s
    /// `clone_from`) — no allocator call while the new text fits — which is
    /// what makes an attribute overwrite
    /// ([`Graph::set_attr`](crate::Graph::set_attr), a `SetAttr` delta) a
    /// write in place.
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
        Value::Str(Text::new(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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

    /// Text cut from `chars` to at most `max` bytes, on a char boundary.
    fn text_of(chars: &[char], max: usize) -> String {
        let mut s = String::new();
        for &c in chars {
            if s.len() + c.len_utf8() > max {
                break;
            }
            s.push(c);
        }
        s
    }

    /// What a `String` payload gave: `Hash` (of the kind tag, then the
    /// text), `index_key`, `Display` and `Debug`.
    fn string_payload(s: &str) -> (u64, u64, String, String) {
        let mut hasher = DefaultHasher::new();
        3u8.hash(&mut hasher);
        s.to_owned().hash(&mut hasher);
        let mut key = DefaultHasher::new();
        key.write(s.as_bytes());
        let (display, debug) = (format!("\"{s}\""), format!("Str({:?})", s.to_owned()));
        (hasher.finish(), key.finish(), display, debug)
    }

    /// The payload of a string value. `Value`'s `==` goes through `cmp`,
    /// so `Text`'s own `==` is checked on this.
    fn text(v: &Value) -> &Text {
        let Value::Str(t) = v else {
            panic!("{v} is not a string")
        };
        t
    }

    /// Multi-byte chars (2, 3 and 4 bytes) and ASCII either side of 'é',
    /// so inline and heap text order against each other by their bytes.
    const ALPHABET: [char; 8] = ['a', 'z', 'é', '€', '𝄞', '\u{7f}', ' ', '"'];

    /// Up to 40 chars of [`ALPHABET`], cut to at most `max` bytes.
    fn arb_text() -> impl Strategy<Value = String> {
        let chars = proptest::collection::vec(0..ALPHABET.len(), 0..41);
        (chars, 0usize..41).prop_map(|(picks, max)| {
            let chars: Vec<char> = picks.into_iter().map(|i| ALPHABET[i]).collect();
            text_of(&chars, max)
        })
    }

    proptest! {
        #[test]
        fn text_matches_a_string_payload(a in arb_text(), b in arb_text()) {
            let (va, vb) = (Value::from(a.as_str()), Value::from(b.clone()));
            prop_assert_eq!(va.cmp(&vb), a.as_str().cmp(b.as_str()));
            prop_assert_eq!((va == vb, text(&va) == text(&vb)), (a == b, a == b));
            for (v, s) in [(&va, &a), (&vb, &b)] {
                prop_assert_eq!(text(v).on_heap(), s.len() > INLINE, "{:?}", s);
                prop_assert_eq!(text(v).as_str(), s.as_str());
                prop_assert_eq!(
                    (h(v), v.index_key(), v.to_string(), format!("{v:?}")),
                    string_payload(s)
                );
            }
            for (mut to, from, s) in [(va.clone(), &vb, &b), (vb.clone(), &va, &a)] {
                to.clone_from(from);
                prop_assert_eq!(to.as_str(), Some(s.as_str()));
                prop_assert_eq!(&to, from);
            }
        }
    }

    /// Every length from 0 to 40 bytes of each char of [`ALPHABET`], so
    /// every inline/heap pair — a multi-byte char across bytes 15/16
    /// included — compares, hashes, prints and clones as its text.
    #[test]
    fn text_of_every_length_matches_a_string_payload() {
        let texts: Vec<String> = ALPHABET
            .iter()
            .flat_map(|&c| (0..=40).map(move |max| text_of(&[c; 40], max)))
            .collect();
        assert!(texts.iter().any(|s| s.len() == 16 && s.ends_with('𝄞')));
        assert!(texts.iter().any(|s| s.len() == 15 && s.ends_with('€')));
        let values: Vec<Value> = texts.iter().map(|s| Value::from(s.as_str())).collect();
        for (a, va) in texts.iter().zip(&values) {
            assert_eq!(
                (h(va), va.index_key(), va.to_string(), format!("{va:?}")),
                string_payload(a)
            );
            for (b, vb) in texts.iter().zip(&values) {
                assert_eq!(va.cmp(vb), a.cmp(b), "{a:?} / {b:?}");
                assert_eq!(text(va) == text(vb), a == b, "{a:?} / {b:?}");
                let mut to = va.clone();
                to.clone_from(vb);
                assert_eq!(to.as_str(), Some(b.as_str()));
                // And back, over what the first write left: a heap buffer
                // may now hold short text.
                to.clone_from(va);
                assert_eq!(
                    (to.as_str(), to.clone().as_str()),
                    (Some(&a[..]), Some(&a[..]))
                );
            }
        }
    }

    #[test]
    fn sizes() {
        use std::mem::size_of;
        let sizes = [size_of::<Text>(), size_of::<Value>(), size_of::<String>()];
        println!(
            "Text {} B, Value {} B, String {} B",
            sizes[0], sizes[1], sizes[2]
        );
        assert_eq!(sizes, [24, 24, 24], "a short string costs no size");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::from(1).as_str(), None);
        assert_eq!(Value::from(true).as_bool(), Some(true));
    }
}
