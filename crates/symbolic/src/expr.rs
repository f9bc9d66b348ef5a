//! Canonicalized symbolic integer expressions.
//!
//! [`Expr`] wraps a [`LinForm`]; its constructors maintain the canonical
//! form, so structural equality coincides with ring equality. Nonlinear
//! operators are kept atomic inside [`Atom`]s with light local
//! simplification (constant folding, flattening of nested min/max).
//!
//! On coefficient overflow an expression degrades to a fresh opaque
//! [`Atom::Unknown`] — a sound "don't know" rather than a wrong answer.

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::intern::{Interner, VarId};
use crate::linform::{LinForm, Monomial};

static NEXT_UNKNOWN: AtomicU32 = AtomicU32::new(0);

/// Allocates a process-unique token for an opaque value.
pub fn fresh_unknown_token() -> u32 {
    NEXT_UNKNOWN.fetch_add(1, Ordering::Relaxed)
}

/// An indivisible multiplicative factor.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Atom {
    /// A program variable (or storage location) by interned id.
    Var(VarId),
    /// An opaque value the analysis cannot see through (unknown function
    /// result, unanalyzable read, overflowed arithmetic). Two unknowns
    /// are equal only if they carry the same token.
    Unknown(u32),
    /// Truncating integer division `a / b` (Fortran semantics).
    Div(Box<Expr>, Box<Expr>),
    /// Remainder `MOD(a, b)` with the sign of `a` (Fortran `MOD`).
    Mod(Box<Expr>, Box<Expr>),
    /// `MIN(e...)` over two or more operands, sorted and deduplicated.
    Min(Vec<Expr>),
    /// `MAX(e...)` over two or more operands, sorted and deduplicated.
    Max(Vec<Expr>),
}

/// A canonical symbolic integer expression.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Expr {
    lin: LinForm,
}

impl Expr {
    /// Integer constant.
    pub fn int(k: i64) -> Expr {
        Expr {
            lin: LinForm::constant(k),
        }
    }

    /// Program variable.
    pub fn var(v: VarId) -> Expr {
        Expr::from_atom(Atom::Var(v))
    }

    /// A fresh opaque value, unequal to every other expression.
    pub fn unknown() -> Expr {
        Expr::from_atom(Atom::Unknown(fresh_unknown_token()))
    }

    /// Wraps an atom as an expression.
    pub fn from_atom(a: Atom) -> Expr {
        Expr {
            lin: LinForm::monomial(Monomial::atom(a)),
        }
    }

    /// The underlying linear form.
    pub fn lin(&self) -> &LinForm {
        &self.lin
    }

    /// `self + rhs`.
    pub fn add(&self, rhs: Expr) -> Expr {
        match self.lin.add(&rhs.lin) {
            Some(lin) => Expr { lin },
            None => Expr::unknown(),
        }
    }

    /// `self - rhs`.
    pub fn sub(&self, rhs: Expr) -> Expr {
        match self.lin.sub(&rhs.lin) {
            Some(lin) => Expr { lin },
            None => Expr::unknown(),
        }
    }

    /// `-self`.
    pub fn neg(&self) -> Expr {
        match self.lin.neg() {
            Some(lin) => Expr { lin },
            None => Expr::unknown(),
        }
    }

    /// `self * rhs` with full distribution.
    pub fn mul(&self, rhs: Expr) -> Expr {
        match self.lin.mul(&rhs.lin) {
            Some(lin) => Expr { lin },
            None => Expr::unknown(),
        }
    }

    /// `self * k`.
    pub fn scale(&self, k: i64) -> Expr {
        match self.lin.scale(k) {
            Some(lin) => Expr { lin },
            None => Expr::unknown(),
        }
    }

    /// Truncating division. Folds constants; `x / 1 = x`; division by a
    /// constant that exactly divides all coefficients is performed
    /// symbolically (`(2*N)/2 = N`).
    pub fn div(&self, rhs: Expr) -> Expr {
        if let (Some(a), Some(b)) = (self.as_int(), rhs.as_int()) {
            if b != 0 {
                return Expr::int(a.wrapping_div(b));
            }
        }
        if rhs.as_int() == Some(1) {
            return self.clone();
        }
        if let Some(b) = rhs.as_int() {
            if b != 0
                && self.lin.constant_part() % b == 0
                && !self.lin.is_constant()
                && self.lin.terms().iter().all(|&(c, _)| c % b == 0)
            {
                // Exact symbolic division is only valid when every term is
                // divisible: truncation then distributes over the sum.
                if let Some(lin) = self.lin.scale(1).and_then(|l| {
                    LinForm::from_terms(
                        l.constant_part() / b,
                        l.terms()
                            .iter()
                            .map(|(c, m)| (c / b, m.clone()))
                            .collect(),
                    )
                }) {
                    return Expr { lin };
                }
            }
        }
        Expr::from_atom(Atom::Div(Box::new(self.clone()), Box::new(rhs)))
    }

    /// Fortran `MOD(self, rhs)` (sign of the dividend). Folds constants
    /// and `MOD(x, 1) = 0`.
    pub fn modulo(&self, rhs: Expr) -> Expr {
        if let (Some(a), Some(b)) = (self.as_int(), rhs.as_int()) {
            if b != 0 {
                return Expr::int(a.wrapping_rem(b));
            }
        }
        if rhs.as_int() == Some(1) {
            return Expr::int(0);
        }
        Expr::from_atom(Atom::Mod(Box::new(self.clone()), Box::new(rhs)))
    }

    /// `MIN` of the operands: flattens nested mins, folds constants,
    /// deduplicates; a single survivor is returned unwrapped.
    pub fn min_of(args: Vec<Expr>) -> Expr {
        Self::minmax(args, true)
    }

    /// `MAX` of the operands, with the dual simplifications of
    /// [`Expr::min_of`].
    pub fn max_of(args: Vec<Expr>) -> Expr {
        Self::minmax(args, false)
    }

    fn minmax(args: Vec<Expr>, is_min: bool) -> Expr {
        let mut flat: Vec<Expr> = Vec::with_capacity(args.len());
        let mut best_const: Option<i64> = None;
        for a in args {
            let inner = match (&a.as_single_atom(), is_min) {
                (Some(Atom::Min(xs)), true) | (Some(Atom::Max(xs)), false) => xs.clone(),
                _ => vec![a],
            };
            for e in inner {
                if let Some(k) = e.as_int() {
                    best_const = Some(match best_const {
                        None => k,
                        Some(b) if is_min => b.min(k),
                        Some(b) => b.max(k),
                    });
                } else {
                    flat.push(e);
                }
            }
        }
        flat.sort();
        flat.dedup();
        if let Some(k) = best_const {
            flat.push(Expr::int(k));
        }
        match flat.len() {
            0 => Expr::int(0),
            1 => flat.pop().expect("len checked"),
            _ => Expr::from_atom(if is_min { Atom::Min(flat) } else { Atom::Max(flat) }),
        }
    }

    /// Returns the constant value if this is a literal integer.
    pub fn as_int(&self) -> Option<i64> {
        self.lin.as_constant()
    }

    /// If the expression is exactly one atom (coefficient 1, no constant),
    /// returns it.
    pub fn as_single_atom(&self) -> Option<&Atom> {
        if self.lin.constant_part() != 0 {
            return None;
        }
        match self.lin.terms() {
            [(1, m)] => m.as_single_atom(),
            _ => None,
        }
    }

    /// True if any [`Atom::Unknown`] occurs anywhere in the expression.
    pub fn has_unknown(&self) -> bool {
        self.any_atom(&mut |a| matches!(a, Atom::Unknown(_)))
    }

    /// Structural size (number of atoms + terms); op charges scale on it.
    pub fn width(&self) -> usize {
        self.lin.width()
    }

    /// Tests a predicate over every atom, including atoms nested inside
    /// div/mod/min/max operands.
    pub fn any_atom(&self, pred: &mut impl FnMut(&Atom) -> bool) -> bool {
        for (_, m) in self.lin.terms() {
            for (a, _) in m.factors() {
                if pred(a) {
                    return true;
                }
                let nested = match a {
                    Atom::Div(x, y) | Atom::Mod(x, y) => {
                        x.any_atom(pred) || y.any_atom(pred)
                    }
                    Atom::Min(xs) | Atom::Max(xs) => xs.iter().any(|e| e.any_atom(pred)),
                    Atom::Var(_) | Atom::Unknown(_) => false,
                };
                if nested {
                    return true;
                }
            }
        }
        false
    }

    /// Collects the free variables into `out` (deduplicated by the caller
    /// if needed; this appends in canonical order).
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        self.any_atom(&mut |a| {
            if let Atom::Var(v) = a {
                out.push(*v);
            }
            false
        });
    }

    /// The set of free variables, deduplicated, in canonical order.
    pub fn vars(&self) -> Vec<VarId> {
        let mut vs = Vec::new();
        self.collect_vars(&mut vs);
        vs.sort();
        vs.dedup();
        vs
    }

    /// True if variable `v` occurs anywhere in the expression (the
    /// allocation-free form of `self.vars().contains(&v)`).
    pub fn mentions(&self, v: VarId) -> bool {
        self.any_atom(&mut |a| matches!(a, Atom::Var(x) if *x == v))
    }

    /// Substitutes `repl` for every occurrence of variable `v`.
    pub fn subst(&self, v: VarId, repl: &Expr) -> Expr {
        self.subst_map(&mut |var| (var == v).then(|| repl.clone()))
    }

    /// Substitutes every variable for which `f` returns an expression.
    pub fn subst_map(&self, f: &mut impl FnMut(VarId) -> Option<Expr>) -> Expr {
        let mut acc = Expr::int(self.lin.constant_part());
        for (c, m) in self.lin.terms() {
            // Each factor's image; `None` where the factor is its own
            // (a variable `f` leaves alone, an opaque token). Nested
            // atoms are always rebuilt, without looking inside first.
            let images: Vec<Option<Expr>> = m
                .factors()
                .iter()
                .map(|(a, _)| match a {
                    Atom::Var(v) => f(*v),
                    Atom::Unknown(_) => None,
                    Atom::Div(x, y) => Some(x.subst_map(f).div(y.subst_map(f))),
                    Atom::Mod(x, y) => Some(x.subst_map(f).modulo(y.subst_map(f))),
                    Atom::Min(xs) => {
                        Some(Expr::min_of(xs.iter().map(|e| e.subst_map(f)).collect()))
                    }
                    Atom::Max(xs) => {
                        Some(Expr::max_of(xs.iter().map(|e| e.subst_map(f)).collect()))
                    }
                })
                .collect();
            // A term none of whose factors moved is its own image: no
            // need to multiply it back together one factor at a time.
            let term = if images.iter().all(Option::is_none) {
                Expr {
                    lin: LinForm::from_canonical_term(*c, m.clone()),
                }
            } else {
                let mut term = Expr::int(*c);
                for (image, (a, p)) in images.into_iter().zip(m.factors()) {
                    let base = image.unwrap_or_else(|| Expr::from_atom(a.clone()));
                    for _ in 0..*p {
                        term = term.mul(base.clone());
                    }
                }
                term
            };
            if acc.lin.add_assign(&term.lin).is_none() {
                acc = Expr::unknown();
            }
        }
        acc
    }

    /// Evaluates under a variable assignment. Returns `None` if any
    /// unknown, unbound variable, division by zero, or overflow occurs.
    pub fn eval(&self, f: &impl Fn(VarId) -> Option<i64>) -> Option<i64> {
        let mut acc: i64 = self.lin.constant_part();
        for (c, m) in self.lin.terms() {
            let mut term: i64 = *c;
            for (a, p) in m.factors() {
                let base = match a {
                    Atom::Var(v) => f(*v)?,
                    Atom::Unknown(_) => return None,
                    Atom::Div(x, y) => {
                        let d = y.eval(f)?;
                        if d == 0 {
                            return None;
                        }
                        x.eval(f)?.checked_div(d)?
                    }
                    Atom::Mod(x, y) => {
                        let d = y.eval(f)?;
                        if d == 0 {
                            return None;
                        }
                        x.eval(f)?.checked_rem(d)?
                    }
                    Atom::Min(xs) => xs
                        .iter()
                        .map(|e| e.eval(f))
                        .collect::<Option<Vec<_>>>()?
                        .into_iter()
                        .min()?,
                    Atom::Max(xs) => xs
                        .iter()
                        .map(|e| e.eval(f))
                        .collect::<Option<Vec<_>>>()?
                        .into_iter()
                        .max()?,
                };
                for _ in 0..*p {
                    term = term.checked_mul(base)?;
                }
            }
            acc = acc.checked_add(term)?;
        }
        Some(acc)
    }

    /// Renders with variable names resolved through `ints`.
    pub fn display<'a>(&'a self, ints: &'a Interner) -> ExprDisplay<'a> {
        ExprDisplay { expr: self, ints }
    }

    fn fmt_with(&self, f: &mut fmt::Formatter<'_>, ints: Option<&Interner>) -> fmt::Result {
        let lin = &self.lin;
        let mut first = true;
        if lin.constant_part() != 0 || lin.terms().is_empty() {
            write!(f, "{}", lin.constant_part())?;
            first = false;
        }
        for (c, m) in lin.terms() {
            if !first {
                write!(f, "{}", if *c < 0 { " - " } else { " + " })?;
            } else if *c < 0 {
                write!(f, "-")?;
            }
            first = false;
            let mag = c.unsigned_abs();
            if mag != 1 {
                write!(f, "{}*", mag)?;
            }
            let mut first_factor = true;
            for (a, p) in m.factors() {
                if !first_factor {
                    write!(f, "*")?;
                }
                first_factor = false;
                fmt_atom(a, f, ints)?;
                if *p > 1 {
                    write!(f, "^{}", p)?;
                }
            }
        }
        Ok(())
    }
}

fn fmt_atom(a: &Atom, f: &mut fmt::Formatter<'_>, ints: Option<&Interner>) -> fmt::Result {
    match a {
        Atom::Var(v) => match ints {
            Some(i) => write!(f, "{}", i.name(*v)),
            None => write!(f, "{:?}", v),
        },
        Atom::Unknown(t) => write!(f, "?{}", t),
        Atom::Div(x, y) => {
            write!(f, "(")?;
            x.fmt_with(f, ints)?;
            write!(f, ")/(")?;
            y.fmt_with(f, ints)?;
            write!(f, ")")
        }
        Atom::Mod(x, y) => {
            write!(f, "MOD(")?;
            x.fmt_with(f, ints)?;
            write!(f, ", ")?;
            y.fmt_with(f, ints)?;
            write!(f, ")")
        }
        Atom::Min(xs) | Atom::Max(xs) => {
            write!(f, "{}(", if matches!(a, Atom::Min(_)) { "MIN" } else { "MAX" })?;
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                x.fmt_with(f, ints)?;
            }
            write!(f, ")")
        }
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_with(f, None)
    }
}

/// Display adapter produced by [`Expr::display`].
pub struct ExprDisplay<'a> {
    expr: &'a Expr,
    ints: &'a Interner,
}

impl fmt::Display for ExprDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.expr.fmt_with(f, Some(self.ints))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Expr {
        Expr::var(VarId(i))
    }

    #[test]
    fn ring_identities() {
        let x = v(0);
        let y = v(1);
        assert_eq!(x.add(y.clone()), y.add(x.clone()));
        assert_eq!(x.sub(x.clone()), Expr::int(0));
        assert_eq!(x.mul(Expr::int(0)), Expr::int(0));
        assert_eq!(x.mul(Expr::int(1)), x);
        // (x+y)^2 == x^2 + 2xy + y^2
        let s = x.add(y.clone());
        let lhs = s.mul(s.clone());
        let rhs = x
            .mul(x.clone())
            .add(x.mul(y.clone()).scale(2))
            .add(y.mul(y.clone()));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn div_simplifications() {
        assert_eq!(Expr::int(7).div(Expr::int(2)), Expr::int(3));
        assert_eq!(Expr::int(-7).div(Expr::int(2)), Expr::int(-3)); // truncation
        let x = v(0);
        assert_eq!(x.div(Expr::int(1)), x);
        assert_eq!(x.scale(4).div(Expr::int(2)), x.scale(2));
        // 4x+1 / 2 must NOT simplify termwise.
        let e = x.scale(4).add(Expr::int(1)).div(Expr::int(2));
        assert!(e.as_single_atom().is_some());
    }

    #[test]
    fn mod_simplifications() {
        assert_eq!(Expr::int(7).modulo(Expr::int(3)), Expr::int(1));
        assert_eq!(Expr::int(-7).modulo(Expr::int(3)), Expr::int(-1)); // Fortran MOD
        assert_eq!(v(0).modulo(Expr::int(1)), Expr::int(0));
    }

    #[test]
    fn minmax_flatten_and_fold() {
        let x = v(0);
        let m = Expr::min_of(vec![
            Expr::min_of(vec![x.clone(), Expr::int(5)]),
            Expr::int(3),
            x.clone(),
        ]);
        match m.as_single_atom() {
            Some(Atom::Min(xs)) => {
                assert_eq!(xs.len(), 2);
                assert!(xs.contains(&x));
                assert!(xs.contains(&Expr::int(3)));
            }
            other => panic!("expected min atom, got {:?}", other),
        }
        assert_eq!(Expr::max_of(vec![Expr::int(2), Expr::int(9)]), Expr::int(9));
        assert_eq!(Expr::min_of(vec![x.clone()]), x);
    }

    #[test]
    fn unknowns_are_distinct() {
        assert_ne!(Expr::unknown(), Expr::unknown());
        let u = Expr::unknown();
        assert_eq!(u, u.clone());
        assert!(u.has_unknown());
        assert!(!v(0).has_unknown());
    }

    #[test]
    fn subst_replaces_everywhere() {
        let x = VarId(0);
        let n = VarId(1);
        // e = 2x + x*n + MOD(x, 3)
        let e = v(0)
            .scale(2)
            .add(v(0).mul(v(1)))
            .add(v(0).modulo(Expr::int(3)));
        let got = e.subst(x, &Expr::int(5));
        // 10 + 5n + 2
        let want = Expr::int(12).add(Expr::var(n).scale(5));
        assert_eq!(got, want);
    }

    #[test]
    fn eval_matches_structure() {
        let e = v(0).scale(3).add(v(1).mul(v(1))).sub(Expr::int(4));
        let val = e.eval(&|v| Some(if v == VarId(0) { 2 } else { 5 }));
        assert_eq!(val, Some(3 * 2 + 25 - 4));
        assert_eq!(e.eval(&|_| None), None);
    }

    #[test]
    fn eval_div_by_zero_is_none() {
        let e = v(0).div(v(1));
        assert_eq!(e.eval(&|_| Some(0)), None);
    }

    #[test]
    fn vars_collects_nested() {
        let e = v(0).add(v(1).div(v(2).add(Expr::int(1))));
        assert_eq!(e.vars(), vec![VarId(0), VarId(1), VarId(2)]);
    }

    #[test]
    fn display_is_readable() {
        let mut ints = Interner::new();
        let i = ints.intern("I");
        let n = ints.intern("N");
        let e = Expr::var(i).scale(2).add(Expr::var(n).neg()).add(Expr::int(1));
        assert_eq!(format!("{}", e.display(&ints)), "1 + 2*I - N");
    }
}
