//! Assumption environments: what the compiler knows about variable values.
//!
//! An [`AssumeEnv`] maps variables to symbolic [`Range`]s. Environments
//! are built by range propagation (loop bounds, IF guards, input-deck
//! relations, interprocedural constants) and consumed by the
//! [`crate::Prover`]. Scoped refinement — e.g. entering the THEN branch
//! of `IF (N .GT. 0)` — is expressed with [`AssumeEnv::child`] plus
//! additional assumptions. A child is a full copy, so callers that ask
//! many questions under one refinement build it once and keep it.

use std::collections::HashMap;

use crate::expr::Expr;
use crate::intern::VarId;
use crate::range::Range;

/// A plain hash map from variables to ranges. Nothing is shared between
/// an environment and its [`AssumeEnv::child`]: the copy is O(entries).
#[derive(Clone, Debug, Default)]
pub struct AssumeEnv {
    ranges: HashMap<VarId, Range>,
}

impl AssumeEnv {
    /// An empty environment: every variable is rangeless.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `r` for `v`, intersecting with any existing assumption.
    pub fn assume(&mut self, v: VarId, r: Range) {
        match self.ranges.get_mut(&v) {
            Some(old) => *old = old.intersect(&r),
            None => {
                self.ranges.insert(v, r);
            }
        }
    }

    /// Replaces any existing assumption for `v` (used when a variable is
    /// redefined and old facts must be killed).
    pub fn set(&mut self, v: VarId, r: Range) {
        self.ranges.insert(v, r);
    }

    /// Drops all knowledge about `v` (kill on unanalyzable assignment).
    pub fn kill(&mut self, v: VarId) {
        self.ranges.remove(&v);
    }

    /// The assumed range of `v`; rangeless if never assumed.
    pub fn range_of(&self, v: VarId) -> Range {
        self.ranges.get(&v).cloned().unwrap_or_default()
    }

    /// The assumption recorded for `v`, if any, without copying it.
    pub fn get(&self, v: VarId) -> Option<&Range> {
        self.ranges.get(&v)
    }

    /// True if `v` has no usable bound in either direction.
    pub fn is_rangeless(&self, v: VarId) -> bool {
        self.ranges.get(&v).is_none_or(Range::is_rangeless)
    }

    /// Constant value of `v`, if its range is an exact integer.
    pub fn const_of(&self, v: VarId) -> Option<i64> {
        self.ranges.get(&v).and_then(Range::as_const)
    }

    /// A full copy to refine within a nested scope.
    pub fn child(&self) -> AssumeEnv {
        self.clone()
    }

    /// Number of variables with assumptions.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when no assumptions exist.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Iterates over all assumptions.
    pub fn iter(&self) -> impl Iterator<Item = (&VarId, &Range)> {
        self.ranges.iter()
    }

    /// Assumes `v == e` exactly.
    pub fn assume_eq(&mut self, v: VarId, e: Expr) {
        self.assume(v, Range::exact(e));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_rangeless() {
        let env = AssumeEnv::new();
        assert!(env.is_rangeless(VarId(0)));
        assert_eq!(env.const_of(VarId(0)), None);
    }

    #[test]
    fn assume_intersects() {
        let mut env = AssumeEnv::new();
        let v = VarId(0);
        env.assume(v, Range::at_least(Expr::int(0)));
        env.assume(v, Range::at_most(Expr::int(10)));
        assert_eq!(env.range_of(v), Range::between(Expr::int(0), Expr::int(10)));
        env.assume(v, Range::at_least(Expr::int(5)));
        assert_eq!(env.range_of(v), Range::between(Expr::int(5), Expr::int(10)));
    }

    #[test]
    fn set_replaces_and_kill_removes() {
        let mut env = AssumeEnv::new();
        let v = VarId(1);
        env.assume(v, Range::exact(Expr::int(3)));
        env.set(v, Range::at_least(Expr::int(0)));
        assert_eq!(env.range_of(v), Range::at_least(Expr::int(0)));
        env.kill(v);
        assert!(env.is_rangeless(v));
    }

    #[test]
    fn child_is_independent() {
        let mut env = AssumeEnv::new();
        env.assume_eq(VarId(0), Expr::int(1));
        let mut c = env.child();
        c.assume_eq(VarId(1), Expr::int(2));
        assert_eq!(env.const_of(VarId(1)), None);
        assert_eq!(c.const_of(VarId(0)), Some(1));
        assert_eq!(c.const_of(VarId(1)), Some(2));
    }
}
