//! String interning for symbolic variable names.
//!
//! Symbolic expressions refer to variables through a [`VarId`], a dense
//! `u32` handle produced by an [`Interner`]. Analyses create one interner
//! per program and qualify names by program unit or storage location
//! (e.g. `"SEISPROC::NTRC"`, `"/CBLK/+8"`), so distinct storage gets a
//! distinct id even when source names collide.

use std::collections::HashMap;
use std::fmt;

/// Identifier of an interned variable name.
///
/// Ordering follows interning order; it is used only to canonicalize term
/// order inside expressions, never for semantic comparisons.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl VarId {
    /// Raw index into the interner's table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A bidirectional map between names and [`VarId`]s.
#[derive(Default, Clone)]
pub struct Interner {
    names: Vec<String>,
    ids: HashMap<String, VarId>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `name`, interning it if new.
    pub fn intern(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = VarId(u32::try_from(self.names.len()).expect("interner overflow"));
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<VarId> {
        self.ids.get(name).copied()
    }

    /// The name behind `id`.
    pub fn name(&self, id: VarId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (VarId(i as u32), n.as_str()))
    }

    /// True when `other` extends this interner: every `(id, name)` pair
    /// here appears identically in `other`. Forked interners (clones
    /// that only interned further) always satisfy this against their
    /// origin.
    pub fn is_prefix_of(&self, other: &Interner) -> bool {
        self.names.len() <= other.names.len()
            && self.names.iter().zip(&other.names).all(|(a, b)| a == b)
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("len", &self.names.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("A");
        let b = i.intern("B");
        assert_ne!(a, b);
        assert_eq!(i.intern("A"), a);
        assert_eq!(i.name(a), "A");
        assert_eq!(i.name(b), "B");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert!(i.get("X").is_none());
        let x = i.intern("X");
        assert_eq!(i.get("X"), Some(x));
    }

    #[test]
    fn prefix_detects_divergence() {
        let mut a = Interner::new();
        a.intern("X");
        let mut b = Interner::new();
        b.intern("Y");
        b.intern("X");
        assert!(!a.is_prefix_of(&b));
        assert!(Interner::new().is_prefix_of(&a));
    }

    #[test]
    fn iter_yields_in_order() {
        let mut i = Interner::new();
        let a = i.intern("A");
        let b = i.intern("B");
        let got: Vec<_> = i.iter().collect();
        assert_eq!(got, vec![(a, "A"), (b, "B")]);
    }
}
