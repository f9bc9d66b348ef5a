//! The comparison prover behind the Range Test.
//!
//! Proving `a <= b` reduces to bounding `d = a - b` above by a constant
//! `<= 0`. Bounds are computed by *monotone substitution*: a variable
//! `v` with a known range is replaced by its upper or lower endpoint
//! according to the sign of `∂d/∂v`, which preserves correlations that
//! plain interval arithmetic loses (`I - N` with `I ∈ [1, N]` cancels to
//! `0`). Derivative signs of nonlinear terms are established recursively.
//!
//! All work is charged to an [`OpCounter`]; once a budget trips, the
//! prover fails conservatively (nothing is provable) and the caller can
//! observe [`OpCounter::exceeded`] — the paper's `complexity` hindrance.

use crate::env::AssumeEnv;
use crate::expr::{Atom, Expr};
use crate::intern::VarId;
use crate::ops::OpCounter;
use crate::range::Range;

/// Outcome of a query that may be provable either way or undecided.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tristate {
    /// The queried relation is proven.
    True,
    /// The negation of the queried relation is proven.
    False,
    /// Neither direction could be established.
    Unknown,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Sign {
    Nonneg,
    Nonpos,
    Zero,
}

/// Default recursion depth for derivative-sign queries.
const DEFAULT_DEPTH: u32 = 8;
/// Cap on substitution sweeps per bound computation.
const MAX_SWEEPS: usize = 16;

/// A prover over an assumption environment.
pub struct Prover<'a> {
    env: &'a AssumeEnv,
    ops: &'a OpCounter,
    depth: u32,
}

impl<'a> Prover<'a> {
    /// Creates a prover with the default recursion depth.
    pub fn new(env: &'a AssumeEnv, ops: &'a OpCounter) -> Self {
        Prover {
            env,
            ops,
            depth: DEFAULT_DEPTH,
        }
    }

    /// Proves `a <= b` (false means "could not prove", not "a > b").
    pub fn prove_le(&self, a: &Expr, b: &Expr) -> bool {
        self.prove_le_zero(&a.sub(b.clone()))
    }

    /// Proves `a < b`.
    pub fn prove_lt(&self, a: &Expr, b: &Expr) -> bool {
        self.prove_le_zero(&a.sub(b.clone()).add(Expr::int(1)))
    }

    /// Proves `a >= b`.
    pub fn prove_ge(&self, a: &Expr, b: &Expr) -> bool {
        self.prove_le(b, a)
    }

    /// Proves `a > b`.
    pub fn prove_gt(&self, a: &Expr, b: &Expr) -> bool {
        self.prove_lt(b, a)
    }

    /// Proves `e <= 0`.
    pub fn prove_le_zero(&self, e: &Expr) -> bool {
        match self.bound(e, true, self.depth).as_int() {
            Some(k) => k <= 0,
            None => false,
        }
    }

    /// Proves `e >= 0`.
    pub fn prove_ge_zero(&self, e: &Expr) -> bool {
        match self.bound(e, false, self.depth).as_int() {
            Some(k) => k >= 0,
            None => false,
        }
    }

    /// Proves `a != b`, by separation in either direction or by a GCD
    /// divisibility argument on `a - b`.
    pub fn prove_ne(&self, a: &Expr, b: &Expr) -> bool {
        self.prove_nonzero(&a.sub(b.clone()))
    }

    /// Proves `d != 0` — [`Prover::prove_ne`] for a caller that already
    /// holds the difference.
    pub fn prove_nonzero(&self, d: &Expr) -> bool {
        if let Some(k) = d.as_int() {
            return k != 0;
        }
        if self.prove_le_zero(&d.add(Expr::int(1))) || self.prove_ge_zero(&d.sub(Expr::int(1))) {
            return true;
        }
        // GCD test: g | every coefficient but g ∤ constant ⇒ d ≠ 0.
        let g = d.lin().coef_gcd();
        g > 1 && d.lin().constant_part() % g != 0
    }

    /// Three-way `a <= b`: `True` when proven, `False` when `a > b` is
    /// proven, else `Unknown`.
    pub fn cmp_le(&self, a: &Expr, b: &Expr) -> Tristate {
        if self.prove_le(a, b) {
            Tristate::True
        } else if self.prove_gt(a, b) {
            Tristate::False
        } else {
            Tristate::Unknown
        }
    }

    /// Best-effort symbolic range of `e`. Endpoints are always valid
    /// bounds (at worst `e` itself); [`Range::as_const`] tells whether a
    /// ground bound was reached.
    pub fn range_of(&self, e: &Expr) -> Range {
        Range {
            lo: Some(self.bound(e, false, self.depth)),
            hi: Some(self.bound(e, true, self.depth)),
        }
    }

    /// Computes a bound of `e` (`upper` selects the direction) by
    /// monotone substitution. The result is always a sound bound; it may
    /// simply be `e` unchanged when nothing is known.
    fn bound(&self, e: &Expr, upper: bool, depth: u32) -> Expr {
        if self.ops.charge(e.width() as u64).is_err() {
            return e.clone();
        }
        if depth == 0 || e.as_int().is_some() {
            return e.clone();
        }
        let mut cur = e.clone();
        for _sweep in 0..MAX_SWEEPS {
            if cur.as_int().is_some() {
                return cur;
            }
            if self.ops.charge(cur.width() as u64).is_err() {
                return cur;
            }
            match self.substitute_one(&cur, upper, depth) {
                Some(next) => cur = next,
                None => break,
            }
        }
        cur
    }

    /// Performs one sound substitution step toward the requested bound,
    /// or returns `None` when no step applies.
    fn substitute_one(&self, e: &Expr, upper: bool, depth: u32) -> Option<Expr> {
        // 1. Variables occurring only as plain monomial factors: replace
        //    by a range endpoint chosen by derivative sign. Variables
        //    whose endpoint is itself symbolic go first — substituting
        //    them preserves correlations (I ∈ [1,N] into I - N cancels),
        //    whereas grounding N first would lose them.
        let mut candidates: Vec<(VarId, &Expr)> = Vec::new();
        for v in substitutable_vars(e) {
            let Some(r) = self.env.get(v) else { continue };
            if r.is_rangeless() {
                continue;
            }
            let Some(sign) = self.deriv_sign(e, v, depth) else {
                continue;
            };
            let repl = match (sign, upper) {
                (Sign::Zero, _) => continue,
                (Sign::Nonneg, true) | (Sign::Nonpos, false) => &r.hi,
                (Sign::Nonneg, false) | (Sign::Nonpos, true) => &r.lo,
            };
            let Some(b) = repl else { continue };
            if b.mentions(v) {
                continue; // avoid non-terminating self-substitution
            }
            candidates.push((v, b));
        }
        // Order candidates by *dependency depth*: a variable whose
        // endpoint mentions another candidate substitutes first
        // (innermost-first in a loop nest), because its replacement
        // cancels against the variables it depends on. `I' ∈ [I+1, N]`
        // must ground before `I ∈ [1, N]`, which must ground before `N`.
        // Ties keep variable order (the sort is stable), symbolic
        // endpoints ahead of constant ones.
        if candidates.len() > 1 {
            let mut keyed: Vec<(usize, VarId, &Expr)> = candidates
                .iter()
                .map(|&(v, b)| (dep_depth(v, &candidates, &mut Vec::new()), v, b))
                .collect();
            keyed.sort_by(|a, b| {
                b.0.cmp(&a.0)
                    .then(a.2.as_int().is_some().cmp(&b.2.as_int().is_some()))
            });
            candidates.clear();
            candidates.extend(keyed.into_iter().map(|(_, v, b)| (v, b)));
        }
        // Symbolic endpoints first — they preserve correlations.
        for &(v, b) in &candidates {
            if b.as_int().is_some() {
                continue;
            }
            let next = e.subst(v, b);
            if next != *e {
                return Some(next);
            }
        }
        // 2. Min/Max and MOD atoms occurring linearly: replace by an
        //    operand-wise bound when the coefficient sign is known. This
        //    must run BEFORE grounding variables to constants: an atom's
        //    operand may hold the cancellation partner of a variable
        //    still in the expression.
        if let Some(next) = self.replace_one_atom(e, upper, depth) {
            return Some(next);
        }
        // 3. Constant endpoints last.
        for &(v, b) in &candidates {
            if b.as_int().is_none() {
                continue;
            }
            let next = e.subst(v, b);
            if next != *e {
                return Some(next);
            }
        }
        None
    }

    /// Replaces one nonlinear atom that occurs linearly (power 1, alone
    /// in its monomial) by a bound. Min/Max atoms admit several valid
    /// replacements (any operand bounds a max from below, a min from
    /// above); each alternative is explored with bounded backtracking
    /// and the tightest constant result wins.
    fn replace_one_atom(&self, e: &Expr, upper: bool, depth: u32) -> Option<Expr> {
        for (c, m) in e.lin().terms() {
            let Some(atom) = m.as_single_atom() else {
                continue;
            };
            // Need the bound of the atom in direction `upper XOR (c < 0)`.
            let want_upper = if *c >= 0 { upper } else { !upper };
            let alts = self.atom_bounds(atom, want_upper, depth);
            if alts.is_empty() {
                continue;
            }
            let atom_expr = Expr::from_atom(atom.clone());
            let rest = e.sub(atom_expr.scale(*c));
            let mut best_const: Option<i64> = None;
            let mut first_symbolic: Option<Expr> = None;
            for alt in alts {
                if alt == atom_expr {
                    continue;
                }
                let candidate = rest.add(alt.scale(*c));
                let resolved = self.bound(&candidate, upper, depth.saturating_sub(1));
                match resolved.as_int() {
                    Some(k) => {
                        best_const = Some(match best_const {
                            None => k,
                            Some(b) if upper => b.min(k),
                            Some(b) => b.max(k),
                        });
                    }
                    None => {
                        if first_symbolic.is_none() {
                            first_symbolic = Some(candidate);
                        }
                    }
                }
            }
            if let Some(k) = best_const {
                return Some(Expr::int(k));
            }
            if let Some(s) = first_symbolic {
                return Some(s);
            }
        }
        None
    }

    /// Valid replacements for a nonlinear atom in the given direction.
    fn atom_bounds(&self, a: &Atom, upper: bool, depth: u32) -> Vec<Expr> {
        if depth == 0 {
            return Vec::new();
        }
        match a {
            // min(xs) <= each operand; min(xs) >= min of operand lbs.
            Atom::Min(xs) => {
                if upper {
                    xs.clone()
                } else {
                    vec![Expr::min_of(
                        xs.iter()
                            .map(|x| self.bound(x, false, depth - 1))
                            .collect(),
                    )]
                }
            }
            // max(xs) >= each operand; max(xs) <= max of operand ubs.
            Atom::Max(xs) => {
                if upper {
                    vec![Expr::max_of(
                        xs.iter().map(|x| self.bound(x, true, depth - 1)).collect(),
                    )]
                } else {
                    xs.clone()
                }
            }
            Atom::Mod(x, y) => {
                // Only the nonnegative-dividend, positive-constant-modulus
                // case is handled: MOD(x, k) ∈ [0, k-1].
                let Some(k) = y.as_int() else {
                    return Vec::new();
                };
                let sub = Prover {
                    env: self.env,
                    ops: self.ops,
                    depth: depth - 1,
                };
                if k > 0 && sub.prove_ge_zero(x) {
                    vec![if upper { Expr::int(k - 1) } else { Expr::int(0) }]
                } else {
                    Vec::new()
                }
            }
            Atom::Div(x, y) => {
                // Truncating division by a positive constant is monotone
                // nondecreasing in the dividend; and for a nonnegative
                // dividend, `x / k <= x` bounds it without losing the
                // correlation with `x`.
                let Some(k) = y.as_int() else {
                    return Vec::new();
                };
                let mut alts = Vec::new();
                if k > 0 {
                    let b = self.bound(x, upper, depth - 1);
                    if b != **x {
                        alts.push(b.div(Expr::int(k)));
                    }
                    if upper && k >= 1 {
                        let sub = Prover {
                            env: self.env,
                            ops: self.ops,
                            depth: depth - 1,
                        };
                        if sub.prove_ge_zero(x) {
                            alts.push((**x).clone());
                        }
                    }
                }
                alts
            }
            Atom::Var(_) | Atom::Unknown(_) => Vec::new(),
        }
    }

    /// The sign of `∂e/∂v`, established directly for constant derivatives
    /// and recursively otherwise.
    fn deriv_sign(&self, e: &Expr, v: VarId, depth: u32) -> Option<Sign> {
        let const_sign = |k: i64| match k.cmp(&0) {
            std::cmp::Ordering::Equal => Sign::Zero,
            std::cmp::Ordering::Greater => Sign::Nonneg,
            std::cmp::Ordering::Less => Sign::Nonpos,
        };
        // The common case — `v` occurs in one term only, alone and to
        // the first power — has its coefficient for a derivative.
        let mut with_v = e
            .lin()
            .terms()
            .iter()
            .filter(|(_, m)| m.factors().iter().any(|(a, _)| *a == Atom::Var(v)));
        if let (Some((c, m)), None) = (with_v.next(), with_v.next()) {
            if m.as_single_atom().is_some() {
                return Some(const_sign(*c));
            }
        }
        let d = derivative(e, v);
        if let Some(k) = d.as_int() {
            return Some(const_sign(k));
        }
        if depth == 0 {
            return None;
        }
        let sub = Prover {
            env: self.env,
            ops: self.ops,
            depth: depth - 1,
        };
        if sub.prove_ge_zero(&d) {
            Some(Sign::Nonneg)
        } else if sub.prove_le_zero(&d) {
            Some(Sign::Nonpos)
        } else {
            None
        }
    }
}

/// How many substitutions deep `v`'s endpoint reaches into the other
/// candidates: 0 when it mentions none of them. A bounded DFS (`seen`
/// breaks cycles and caps the chain length).
fn dep_depth(v: VarId, cands: &[(VarId, &Expr)], seen: &mut Vec<VarId>) -> usize {
    if seen.contains(&v) || seen.len() > 8 {
        return 0;
    }
    let Some(&(_, b)) = cands.iter().find(|(c, _)| *c == v) else {
        return 0;
    };
    seen.push(v);
    let mut depth = 0;
    b.any_atom(&mut |a| {
        if let Atom::Var(u) = a {
            if cands.iter().any(|(c, _)| c == u) {
                depth = depth.max(1 + dep_depth(*u, cands, seen));
            }
        }
        false
    });
    seen.pop();
    depth
}

/// Variables of `e` that occur *only* as plain monomial factors (never
/// nested inside div/mod/min/max), so endpoint substitution is sound
/// given the derivative sign.
fn substitutable_vars(e: &Expr) -> Vec<VarId> {
    let mut plain = Vec::new();
    let mut nested = Vec::new();
    for (_, m) in e.lin().terms() {
        for (a, _) in m.factors() {
            match a {
                Atom::Var(v) => plain.push(*v),
                _ => {
                    Expr::from_atom(a.clone()).collect_vars(&mut nested);
                }
            }
        }
    }
    plain.sort();
    plain.dedup();
    nested.sort();
    nested.dedup();
    plain.retain(|v| !nested.contains(v));
    plain
}

/// `∂e/∂v` treating nonlinear atoms as constants with respect to `v`
/// (callers exclude variables nested inside such atoms).
fn derivative(e: &Expr, v: VarId) -> Expr {
    let mut acc = Expr::int(0);
    for (c, m) in e.lin().terms() {
        let Some(p) = m
            .factors()
            .iter()
            .find(|(a, _)| *a == Atom::Var(v))
            .map(|&(_, p)| p)
        else {
            continue;
        };
        // d/dv (c * v^p * rest) = c * p * v^(p-1) * rest
        let mut term = Expr::int((*c).saturating_mul(p as i64));
        for (a, q) in m.factors() {
            let (base, pow) = if *a == Atom::Var(v) {
                (Expr::var(v), p - 1)
            } else {
                (Expr::from_atom(a.clone()), *q)
            };
            for _ in 0..pow {
                term = term.mul(base.clone());
            }
        }
        acc = acc.add(term);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Interner;

    struct Setup {
        ints: Interner,
        env: AssumeEnv,
        ops: OpCounter,
    }

    impl Setup {
        fn new() -> Self {
            Setup {
                ints: Interner::new(),
                env: AssumeEnv::new(),
                ops: OpCounter::unlimited(),
            }
        }
        fn var(&mut self, name: &str) -> VarId {
            self.ints.intern(name)
        }
    }

    #[test]
    fn loop_index_within_bounds() {
        let mut s = Setup::new();
        let n = s.var("N");
        let i = s.var("I");
        s.env.assume(n, Range::at_least(Expr::int(1)));
        s.env.assume(i, Range::between(Expr::int(1), Expr::var(n)));
        let p = Prover::new(&s.env, &s.ops);
        assert!(p.prove_le(&Expr::var(i), &Expr::var(n)));
        assert!(p.prove_ge(&Expr::var(i), &Expr::int(1)));
        assert!(!p.prove_lt(&Expr::var(i), &Expr::var(n)));
        assert!(p.prove_lt(&Expr::var(i), &Expr::var(n).add(Expr::int(1))));
    }

    #[test]
    fn correlated_cancellation_beats_intervals() {
        // A(I) vs A(I+N): with N >= 1, subscripts never collide for the
        // same I; prove I < I + N.
        let mut s = Setup::new();
        let n = s.var("N");
        let i = s.var("I");
        s.env.assume(n, Range::at_least(Expr::int(1)));
        let p = Prover::new(&s.env, &s.ops);
        let a = Expr::var(i);
        let b = Expr::var(i).add(Expr::var(n));
        assert!(p.prove_lt(&a, &b));
        assert!(p.prove_ne(&a, &b));
    }

    #[test]
    fn rangeless_variable_defeats_proof() {
        // The paper's `rangeless` hindrance: no bound on M, nothing provable.
        let mut s = Setup::new();
        let m = s.var("M");
        let i = s.var("I");
        s.env.assume(i, Range::between(Expr::int(1), Expr::int(10)));
        let p = Prover::new(&s.env, &s.ops);
        assert!(!p.prove_le(&Expr::var(i), &Expr::var(m)));
        assert!(!p.prove_ne(&Expr::var(i), &Expr::var(m)));
        assert_eq!(
            p.cmp_le(&Expr::var(i), &Expr::var(m)),
            Tristate::Unknown
        );
    }

    #[test]
    fn gcd_separation() {
        // 2i and 2j+1 can never be equal.
        let mut s = Setup::new();
        let i = s.var("I");
        let j = s.var("J");
        let p = Prover::new(&s.env, &s.ops);
        let a = Expr::var(i).scale(2);
        let b = Expr::var(j).scale(2).add(Expr::int(1));
        assert!(p.prove_ne(&a, &b));
        // but 2i vs 2j is not separable
        assert!(!p.prove_ne(&a, &Expr::var(j).scale(2)));
    }

    #[test]
    fn nonlinear_product_with_sign_info() {
        // ld >= 1, j in [0, m-1], i in [1, ld] ⇒ j*ld + i <= m*ld.
        let mut s = Setup::new();
        let ld = s.var("LD");
        let m = s.var("M");
        let j = s.var("J");
        let i = s.var("I");
        s.env.assume(ld, Range::at_least(Expr::int(1)));
        s.env.assume(m, Range::at_least(Expr::int(1)));
        s.env
            .assume(j, Range::between(Expr::int(0), Expr::var(m).sub(Expr::int(1))));
        s.env.assume(i, Range::between(Expr::int(1), Expr::var(ld)));
        let p = Prover::new(&s.env, &s.ops);
        let access = Expr::var(j).mul(Expr::var(ld)).add(Expr::var(i));
        let limit = Expr::var(m).mul(Expr::var(ld));
        assert!(p.prove_le(&access, &limit));
    }

    #[test]
    fn row_disjointness_linearized() {
        // Rows j and j+1 of a linearized 2-D array do not overlap:
        // j*ld + i1 < (j+1)*ld + i2 for i1 in [1,ld], i2 >= 1.
        let mut s = Setup::new();
        let ld = s.var("LD");
        let j = s.var("J");
        let i1 = s.var("I1");
        let i2 = s.var("I2");
        s.env.assume(ld, Range::at_least(Expr::int(1)));
        s.env.assume(i1, Range::between(Expr::int(1), Expr::var(ld)));
        s.env.assume(i2, Range::at_least(Expr::int(1)));
        let p = Prover::new(&s.env, &s.ops);
        let a = Expr::var(j).mul(Expr::var(ld)).add(Expr::var(i1));
        let b = Expr::var(j)
            .add(Expr::int(1))
            .mul(Expr::var(ld))
            .add(Expr::var(i2));
        assert!(p.prove_lt(&a, &b));
    }

    #[test]
    fn min_max_bounds() {
        let mut s = Setup::new();
        let n = s.var("N");
        let k = s.var("K");
        s.env.assume(n, Range::between(Expr::int(1), Expr::int(100)));
        let p = Prover::new(&s.env, &s.ops);
        // min(N, K) <= 100 even though K is rangeless.
        let m = Expr::min_of(vec![Expr::var(n), Expr::var(k)]);
        assert!(p.prove_le(&m, &Expr::int(100)));
        // max(N, K) >= 1 likewise.
        let mx = Expr::max_of(vec![Expr::var(n), Expr::var(k)]);
        assert!(p.prove_ge(&mx, &Expr::int(1)));
        // but min(N, K) >= 1 needs K's lower bound: unprovable.
        assert!(!p.prove_ge(&m, &Expr::int(1)));
    }

    #[test]
    fn mod_bounds() {
        let mut s = Setup::new();
        let i = s.var("I");
        s.env.assume(i, Range::at_least(Expr::int(0)));
        let p = Prover::new(&s.env, &s.ops);
        let m = Expr::var(i).modulo(Expr::int(8));
        assert!(p.prove_le(&m, &Expr::int(7)));
        assert!(p.prove_ge_zero(&m));
        assert!(!p.prove_le(&m, &Expr::int(6)));
    }

    #[test]
    fn div_bounds() {
        let mut s = Setup::new();
        let i = s.var("I");
        s.env.assume(i, Range::between(Expr::int(0), Expr::int(100)));
        let p = Prover::new(&s.env, &s.ops);
        let d = Expr::var(i).div(Expr::int(4));
        assert!(p.prove_le(&d, &Expr::int(25)));
        assert!(p.prove_ge_zero(&d));
    }

    #[test]
    fn budget_exhaustion_fails_conservatively() {
        let mut s = Setup::new();
        let n = s.var("N");
        let i = s.var("I");
        s.env.assume(n, Range::at_least(Expr::int(1)));
        s.env.assume(i, Range::between(Expr::int(1), Expr::var(n)));
        let ops = OpCounter::with_budget(1);
        let p = Prover::new(&s.env, &ops);
        assert!(!p.prove_le(&Expr::var(i), &Expr::var(n)));
        assert!(ops.exceeded());
    }

    #[test]
    fn unknown_atoms_are_never_provable() {
        let s = Setup::new();
        let p = Prover::new(&s.env, &s.ops);
        let u = Expr::unknown();
        assert!(!p.prove_le(&u, &Expr::int(1_000_000)));
        assert!(!p.prove_ge(&u, &Expr::int(-1_000_000)));
    }

    #[test]
    fn cmp_le_reports_false_direction() {
        let mut s = Setup::new();
        let i = s.var("I");
        s.env.assume(i, Range::at_least(Expr::int(10)));
        let p = Prover::new(&s.env, &s.ops);
        assert_eq!(p.cmp_le(&Expr::var(i), &Expr::int(5)), Tristate::False);
        assert_eq!(p.cmp_le(&Expr::int(5), &Expr::var(i)), Tristate::True);
    }
}
