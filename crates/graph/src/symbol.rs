//! Interned labels and attribute names.
//!
//! The paper assumes countably infinite sets `Γ` of labels and `Υ` of
//! attributes (Section 2). Labels and attribute names are short strings that
//! are compared constantly during pattern matching and chasing, so we intern
//! them: a [`Symbol`] is a `u32` index into a process-global table guarded by
//! a [`std::sync::RwLock`]. Equality of symbols is integer equality.
//!
//! Two symbols are reserved:
//! * [`Symbol::WILDCARD`] — the pattern wildcard `_` (Section 2, "we allow
//!   wildcard `_` as a special label in Q"). Label matching `ι ⪯ ι′` is the
//!   *asymmetric* relation of the paper: `wildcard ⪯ anything`, and otherwise
//!   only `ι ⪯ ι`.
//! * [`Symbol::ID`] — the special attribute `id` denoting node identity.
//!   Constant/variable literals must not use it (enforced in `ged-core`).

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned label or attribute name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The wildcard label `_` (index 0 in the global interner).
    pub const WILDCARD: Symbol = Symbol(0);
    /// The special `id` attribute (index 1 in the global interner).
    pub const ID: Symbol = Symbol(1);

    /// Intern `name`, returning its symbol. `"_"` yields [`Symbol::WILDCARD`].
    pub fn new(name: &str) -> Symbol {
        interner().intern(name)
    }

    /// The string this symbol was interned from.
    pub fn name(self) -> String {
        interner().resolve(self)
    }

    /// Is this the wildcard label?
    pub fn is_wildcard(self) -> bool {
        self == Symbol::WILDCARD
    }

    /// Label matching `ι ⪯ ι′` (Section 2): wildcard matches any label;
    /// otherwise labels must be identical. NOTE the asymmetry: a concrete
    /// label does *not* match the wildcard (`x ⪯ y` does not imply `y ⪯ x`);
    /// Example 7 relies on this when chasing patterns that contain `_`.
    pub fn matches(self, other: Symbol) -> bool {
        self.is_wildcard() || self == other
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        interner().with_name(*self, |name| write!(f, "Symbol({} = {name:?})", self.0))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        interner().with_name(*self, |name| f.write_str(name))
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

/// The process-global interner.
struct Interner {
    inner: RwLock<InternerInner>,
}

struct InternerInner {
    names: Vec<String>,
    map: HashMap<String, u32>,
}

impl Interner {
    fn with_reserved() -> Interner {
        let mut inner = InternerInner {
            names: Vec::new(),
            map: HashMap::new(),
        };
        // Reserve indices 0 and 1; order matters (see Symbol consts).
        for s in ["_", "id"] {
            let idx = inner.names.len() as u32;
            inner.names.push(s.to_string());
            inner.map.insert(s.to_string(), idx);
        }
        Interner {
            inner: RwLock::new(inner),
        }
    }

    fn intern(&self, name: &str) -> Symbol {
        {
            let g = self.inner.read().expect("interner lock poisoned");
            if let Some(&idx) = g.map.get(name) {
                return Symbol(idx);
            }
        }
        let mut g = self.inner.write().expect("interner lock poisoned");
        if let Some(&idx) = g.map.get(name) {
            return Symbol(idx);
        }
        let idx = g.names.len() as u32;
        g.names.push(name.to_string());
        g.map.insert(name.to_string(), idx);
        Symbol(idx)
    }

    fn resolve(&self, sym: Symbol) -> String {
        self.with_name(sym, str::to_string)
    }

    /// Run `f` on the interned string without copying it out: the
    /// formatting impls go through here, so `{:?}`-rendering a value full
    /// of symbols (a violation kind on the `report` path) allocates
    /// nothing per symbol.
    fn with_name<R>(&self, sym: Symbol, f: impl FnOnce(&str) -> R) -> R {
        let g = self.inner.read().expect("interner lock poisoned");
        match g.names.get(sym.0 as usize) {
            Some(name) => f(name),
            None => f(&format!("<sym {}>", sym.0)),
        }
    }
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(Interner::with_reserved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let a = Symbol::new("person");
        let b = Symbol::new("person");
        assert_eq!(a, b);
        assert_eq!(a.name(), "person");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(Symbol::new("alpha"), Symbol::new("beta"));
    }

    #[test]
    fn wildcard_is_reserved() {
        assert_eq!(Symbol::new("_"), Symbol::WILDCARD);
        assert!(Symbol::WILDCARD.is_wildcard());
        assert!(!Symbol::new("person").is_wildcard());
    }

    #[test]
    fn id_is_reserved() {
        assert_eq!(Symbol::new("id"), Symbol::ID);
    }

    #[test]
    fn label_matching_is_asymmetric() {
        let person = Symbol::new("person");
        let product = Symbol::new("product");
        // wildcard ⪯ person, but person ⋠ wildcard
        assert!(Symbol::WILDCARD.matches(person));
        assert!(!person.matches(Symbol::WILDCARD));
        assert!(person.matches(person));
        assert!(!person.matches(product));
        // wildcard ⪯ wildcard (reflexivity of equality branch)
        assert!(Symbol::WILDCARD.matches(Symbol::WILDCARD));
    }

    #[test]
    fn concurrent_interning() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut syms = Vec::new();
                    for j in 0..100 {
                        syms.push(Symbol::new(&format!("t{}", (i * j) % 50)));
                    }
                    syms
                })
            })
            .collect();
        let all: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Same name -> same symbol across threads.
        for row in &all {
            for s in row {
                assert_eq!(Symbol::new(&s.name()), *s);
            }
        }
    }
}
