//! Canonical linear-form representation of symbolic expressions.
//!
//! Every [`crate::Expr`] is a *linear form*: an integer constant plus a sum
//! of `coefficient * monomial` terms, where a [`Monomial`] is a product of
//! [`Atom`]s raised to positive powers. Nonlinear structure (division,
//! modulo, min/max, opaque unknowns) lives inside atoms, so two
//! expressions are semantically equal under ring axioms iff their linear
//! forms are structurally equal. This canonicalization is what lets the
//! dependence tests compare array subscripts cheaply.

use crate::expr::Atom;

/// A product of atoms with positive integer powers, kept sorted by atom.
///
/// The empty monomial is the multiplicative unit and never appears in a
/// [`LinForm`] term list (its coefficient is folded into the constant).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Monomial {
    factors: Vec<(Atom, u32)>,
}

impl Monomial {
    /// The unit monomial (empty product).
    pub fn unit() -> Self {
        Self::default()
    }

    /// A monomial consisting of a single atom to the first power.
    pub fn atom(a: Atom) -> Self {
        Monomial {
            factors: vec![(a, 1)],
        }
    }

    /// True for the unit monomial.
    pub fn is_unit(&self) -> bool {
        self.factors.is_empty()
    }

    /// The factors `(atom, power)` in canonical order.
    pub fn factors(&self) -> &[(Atom, u32)] {
        &self.factors
    }

    /// Total degree (sum of powers).
    pub fn degree(&self) -> u32 {
        self.factors.iter().map(|&(_, p)| p).sum()
    }

    /// If this monomial is a single atom to the first power, returns it.
    pub fn as_single_atom(&self) -> Option<&Atom> {
        match self.factors.as_slice() {
            [(a, 1)] => Some(a),
            _ => None,
        }
    }

    /// Product of two monomials (merges factor lists, adds powers).
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let mut factors = Vec::with_capacity(self.factors.len() + other.factors.len());
        let (mut i, mut j) = (0, 0);
        while i < self.factors.len() && j < other.factors.len() {
            match self.factors[i].0.cmp(&other.factors[j].0) {
                std::cmp::Ordering::Less => {
                    factors.push(self.factors[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    factors.push(other.factors[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    // Saturate rather than overflow: a degree-4-billion
                    // monomial only arises from adversarial input, and a
                    // pinned power is still a valid canonical form.
                    factors.push((
                        self.factors[i].0.clone(),
                        self.factors[i].1.saturating_add(other.factors[j].1),
                    ));
                    i += 1;
                    j += 1;
                }
            }
        }
        factors.extend_from_slice(&self.factors[i..]);
        factors.extend_from_slice(&other.factors[j..]);
        Monomial { factors }
    }

    /// Builds a monomial from unsorted factors, merging duplicates.
    pub fn from_factors(mut fs: Vec<(Atom, u32)>) -> Monomial {
        fs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut factors: Vec<(Atom, u32)> = Vec::with_capacity(fs.len());
        for (a, p) in fs {
            if p == 0 {
                continue;
            }
            match factors.last_mut() {
                Some((la, lp)) if *la == a => *lp = lp.saturating_add(p),
                _ => factors.push((a, p)),
            }
        }
        Monomial { factors }
    }
}

/// `constant + Σ coef_i * monomial_i`, terms sorted by monomial, all
/// coefficients nonzero, no unit monomial among the terms.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LinForm {
    pub(crate) constant: i64,
    pub(crate) terms: Vec<(i64, Monomial)>,
}

impl LinForm {
    /// The constant form `k`.
    pub fn constant(k: i64) -> Self {
        LinForm {
            constant: k,
            terms: Vec::new(),
        }
    }

    /// The form `1 * m` for a monomial `m`.
    pub fn monomial(m: Monomial) -> Self {
        if m.is_unit() {
            LinForm::constant(1)
        } else {
            LinForm {
                constant: 0,
                terms: vec![(1, m)],
            }
        }
    }

    /// The form `c * m` for a nonzero `c` and non-unit `m` — one term
    /// of an existing canonical form, lifted out unchanged.
    pub(crate) fn from_canonical_term(c: i64, m: Monomial) -> Self {
        debug_assert!(c != 0 && !m.is_unit());
        LinForm {
            constant: 0,
            terms: vec![(c, m)],
        }
    }

    /// Constant part.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// Non-constant terms in canonical order.
    pub fn terms(&self) -> &[(i64, Monomial)] {
        &self.terms
    }

    /// True if the form is a plain integer constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns the constant value if the form is constant.
    pub fn as_constant(&self) -> Option<i64> {
        self.is_constant().then_some(self.constant)
    }

    /// Builds a form from a constant and unsorted terms, canonicalizing.
    /// Returns `None` on coefficient overflow.
    pub fn from_terms(constant: i64, mut raw: Vec<(i64, Monomial)>) -> Option<LinForm> {
        raw.sort_by(|a, b| a.1.cmp(&b.1));
        let mut constant = constant;
        let mut terms: Vec<(i64, Monomial)> = Vec::with_capacity(raw.len());
        for (c, m) in raw {
            if c == 0 {
                continue;
            }
            if m.is_unit() {
                constant = constant.checked_add(c)?;
                continue;
            }
            match terms.last_mut() {
                Some((lc, lm)) if *lm == m => *lc = lc.checked_add(c)?,
                _ => terms.push((c, m)),
            }
        }
        terms.retain(|&(c, _)| c != 0);
        Some(LinForm { constant, terms })
    }

    /// `self + other`; `None` on overflow.
    pub fn add(&self, other: &LinForm) -> Option<LinForm> {
        self.merge(other, false)
    }

    /// `self - other`; `None` on overflow (including an `i64::MIN`
    /// coefficient of `other`, which has no negation).
    pub fn sub(&self, other: &LinForm) -> Option<LinForm> {
        self.merge(other, true)
    }

    /// `self ± other` as one pass over the two sorted term lists: both
    /// sides are canonical, so merging them in monomial order is
    /// [`LinForm::from_terms`] without the sort.
    fn merge(&self, other: &LinForm, negate: bool) -> Option<LinForm> {
        let sign = |c: i64| if negate { c.checked_neg() } else { Some(c) };
        let constant = self.constant.checked_add(sign(other.constant)?)?;
        let mut terms = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() && j < other.terms.len() {
            let (ca, ma) = &self.terms[i];
            let (cb, mb) = &other.terms[j];
            match ma.cmp(mb) {
                std::cmp::Ordering::Less => {
                    terms.push((*ca, ma.clone()));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    terms.push((sign(*cb)?, mb.clone()));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let c = ca.checked_add(sign(*cb)?)?;
                    if c != 0 {
                        terms.push((c, ma.clone()));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        terms.extend_from_slice(&self.terms[i..]);
        for (c, m) in &other.terms[j..] {
            terms.push((sign(*c)?, m.clone()));
        }
        Some(LinForm { constant, terms })
    }

    /// `self += other` in place; `None` on overflow, after which `self`
    /// holds a partial sum the caller must discard. Term by term this is
    /// exactly [`LinForm::add`] — same sums, same overflow checks — minus
    /// the copy of every term already accumulated, which is what makes
    /// building a form from many small pieces linear instead of
    /// quadratic.
    pub(crate) fn add_assign(&mut self, other: &LinForm) -> Option<()> {
        self.constant = self.constant.checked_add(other.constant)?;
        for (c, m) in &other.terms {
            match self.terms.binary_search_by(|(_, mine)| mine.cmp(m)) {
                Ok(at) => {
                    let sum = self.terms[at].0.checked_add(*c)?;
                    if sum == 0 {
                        self.terms.remove(at);
                    } else {
                        self.terms[at].0 = sum;
                    }
                }
                Err(at) => self.terms.insert(at, (*c, m.clone())),
            }
        }
        Some(())
    }

    /// `self * k`; `None` on overflow.
    pub fn scale(&self, k: i64) -> Option<LinForm> {
        if k == 0 {
            return Some(LinForm::constant(0));
        }
        let constant = self.constant.checked_mul(k)?;
        let mut terms = Vec::with_capacity(self.terms.len());
        for (c, m) in &self.terms {
            terms.push((c.checked_mul(k)?, m.clone()));
        }
        Some(LinForm { constant, terms })
    }

    /// `-self`; `None` on overflow (only for `i64::MIN` coefficients).
    pub fn neg(&self) -> Option<LinForm> {
        self.scale(-1)
    }

    /// `self * other` by full distribution; `None` on overflow.
    pub fn mul(&self, other: &LinForm) -> Option<LinForm> {
        let mut raw: Vec<(i64, Monomial)> = Vec::new();
        let constant = self.constant.checked_mul(other.constant)?;
        for (c, m) in &self.terms {
            raw.push((c.checked_mul(other.constant)?, m.clone()));
        }
        for (c, m) in &other.terms {
            raw.push((c.checked_mul(self.constant)?, m.clone()));
        }
        for (c1, m1) in &self.terms {
            for (c2, m2) in &other.terms {
                raw.push((c1.checked_mul(*c2)?, m1.mul(m2)));
            }
        }
        LinForm::from_terms(constant, raw)
    }

    /// Number of (term, atom) nodes — a size measure used for op charges.
    pub fn width(&self) -> usize {
        1 + self
            .terms
            .iter()
            .map(|(_, m)| 1 + m.factors().len())
            .sum::<usize>()
    }

    /// GCD of all term coefficients (not the constant); 0 if no terms.
    pub fn coef_gcd(&self) -> i64 {
        self.terms
            .iter()
            .fold(0i64, |g, &(c, _)| gcd(g, c.unsigned_abs() as i64))
    }
}

/// Greatest common divisor of two non-negative integers.
pub fn gcd(mut a: i64, mut b: i64) -> i64 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::VarId;

    fn va(i: u32) -> Atom {
        Atom::Var(VarId(i))
    }

    #[test]
    fn monomial_mul_merges_powers() {
        let x = Monomial::atom(va(0));
        let xy = x.mul(&Monomial::atom(va(1)));
        let x2y = xy.mul(&x);
        assert_eq!(x2y.factors(), &[(va(0), 2), (va(1), 1)]);
        assert_eq!(x2y.degree(), 3);
    }

    #[test]
    fn from_terms_cancels() {
        let x = Monomial::atom(va(0));
        let lf = LinForm::from_terms(3, vec![(2, x.clone()), (-2, x)]).unwrap();
        assert_eq!(lf.as_constant(), Some(3));
    }

    #[test]
    fn add_and_scale() {
        let x = LinForm::monomial(Monomial::atom(va(0)));
        let two_x = x.add(&x).unwrap();
        assert_eq!(two_x, x.scale(2).unwrap());
        assert_eq!(
            two_x.add(&two_x.neg().unwrap()).unwrap().as_constant(),
            Some(0)
        );
    }

    #[test]
    fn merged_add_and_sub_equal_the_sorting_reference() {
        // `add`/`sub` merge two canonical term lists; the reference
        // concatenates, negates and lets `from_terms` sort and fold.
        let reference = |a: &LinForm, b: &LinForm, negate: bool| -> Option<LinForm> {
            let b = if negate { b.neg()? } else { b.clone() };
            let mut raw = a.terms.clone();
            raw.extend(b.terms.iter().cloned());
            LinForm::from_terms(a.constant.checked_add(b.constant)?, raw)
        };
        let coefs = [i64::MIN, -3, -1, 1, 2, i64::MAX];
        let mut forms = Vec::new();
        // Every subset of {x, y, x*y} with a rotating coefficient choice.
        let monos = [
            Monomial::atom(va(0)),
            Monomial::atom(va(1)),
            Monomial::atom(va(0)).mul(&Monomial::atom(va(1))),
        ];
        for mask in 0u32..8 {
            for shift in 0..coefs.len() {
                let terms = monos
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| mask & (1 << k) != 0)
                    .map(|(k, m)| (coefs[(shift + 2 * k) % coefs.len()], m.clone()))
                    .collect();
                forms.push(LinForm::from_terms(coefs[shift], terms).expect("no duplicates"));
            }
        }
        for a in &forms {
            for b in &forms {
                assert_eq!(a.add(b), reference(a, b, false), "{a:?} + {b:?}");
                assert_eq!(a.sub(b), reference(a, b, true), "{a:?} - {b:?}");
                let mut acc = a.clone();
                let in_place = acc.add_assign(b).map(|()| acc);
                assert_eq!(in_place, reference(a, b, false), "{a:?} += {b:?}");
            }
        }
    }

    #[test]
    fn mul_distributes() {
        // (x + 1)(x - 1) = x^2 - 1
        let x = LinForm::monomial(Monomial::atom(va(0)));
        let a = x.add(&LinForm::constant(1)).unwrap();
        let b = x.add(&LinForm::constant(-1)).unwrap();
        let p = a.mul(&b).unwrap();
        let x2 = x.mul(&x).unwrap();
        assert_eq!(p, x2.add(&LinForm::constant(-1)).unwrap());
    }

    #[test]
    fn overflow_is_reported() {
        let big = LinForm::constant(i64::MAX);
        assert!(big.add(&LinForm::constant(1)).is_none());
        assert!(big.scale(2).is_none());
    }

    #[test]
    fn coef_gcd_ignores_constant() {
        let x = Monomial::atom(va(0));
        let y = Monomial::atom(va(1));
        let lf = LinForm::from_terms(7, vec![(6, x), (9, y)]).unwrap();
        assert_eq!(lf.coef_gcd(), 3);
    }

    #[test]
    fn monomial_powers_saturate_instead_of_overflowing() {
        let deep = Monomial::from_factors(vec![(va(0), u32::MAX), (va(0), 7)]);
        assert_eq!(deep.factors(), &[(va(0), u32::MAX)]);
        let sq = deep.mul(&deep);
        assert_eq!(sq.factors(), &[(va(0), u32::MAX)]);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(-12, 18), 6);
    }
}
