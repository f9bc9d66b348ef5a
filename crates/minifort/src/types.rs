//! MiniFort scalar types and program-unit languages.

use std::fmt;

/// Scalar data types. `Real` carries 64-bit semantics (the paper's codes
/// are DOUBLE PRECISION-heavy; MiniFort folds REAL and DOUBLE PRECISION
/// together, which does not affect any of the studied analyses).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Ty {
    Integer,
    Real,
    Complex,
    Logical,
    /// Character data appears only in I/O statements.
    Character,
}

impl Ty {
    /// Storage size in words (one word = one numeric cell).
    pub fn words(self) -> i64 {
        match self {
            Ty::Complex => 2,
            _ => 1,
        }
    }

    /// Fortran implicit typing: names starting I–N are INTEGER, others
    /// REAL.
    pub fn implicit_for(name: &str) -> Ty {
        match name.chars().next() {
            Some('I'..='N') => Ty::Integer,
            _ => Ty::Real,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::Integer => "INTEGER",
            Ty::Real => "REAL",
            Ty::Complex => "COMPLEX",
            Ty::Logical => "LOGICAL",
            Ty::Character => "CHARACTER",
        };
        write!(f, "{}", s)
    }
}

/// One value of an input deck, consumed by `READ(*,*)` in order. The
/// front end owns the statement, so it owns the type: the workload
/// generators build decks of it and the runtime reads them, under the
/// names `apar_workloads::DeckValue` and `apar_runtime::DeckVal`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeckVal {
    Int(i64),
    Real(f64),
}

/// Source language of a program unit. `C` units model the multilingual
/// challenge (§2.4): the Fortran-level analysis treats their bodies as
/// opaque, while the runtime still executes them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Lang {
    #[default]
    Fortran,
    C,
}

impl fmt::Display for Lang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", if *self == Lang::C { "C" } else { "FORTRAN" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_typing_rule() {
        for (n, t) in [
            ("I", Ty::Integer),
            ("N", Ty::Integer),
            ("KOUNT", Ty::Integer),
            ("A", Ty::Real),
            ("X", Ty::Real),
            ("H", Ty::Real),
            ("OTRA", Ty::Real),
        ] {
            assert_eq!(Ty::implicit_for(n), t, "{}", n);
        }
    }

    #[test]
    fn word_sizes() {
        assert_eq!(Ty::Integer.words(), 1);
        assert_eq!(Ty::Complex.words(), 2);
    }
}
