//! Deterministic accounting of symbolic-analysis work.
//!
//! The paper bounds "reasonable" compilation at twelve hours and four
//! gigabytes; loops whose analysis exceeds the bound fall into the
//! `complexity` hindrance category. Wall-clock limits are not
//! reproducible in tests, so the prover charges every unit of symbolic
//! work to an [`OpCounter`] with an optional hard budget. Pass timings
//! for Figures 2/3 report both ops and seconds.

use std::cell::Cell;

/// Error-marker returned when a charge would exceed the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded;

/// A single-threaded counter of symbolic operations with an optional
/// budget. Once the budget trips, the counter stays in the exceeded
/// state until [`OpCounter::reset`].
#[derive(Debug)]
pub struct OpCounter {
    spent: Cell<u64>,
    budget: Option<u64>,
    exceeded: Cell<bool>,
}

impl OpCounter {
    /// A counter that never trips.
    pub fn unlimited() -> Self {
        OpCounter {
            spent: Cell::new(0),
            budget: None,
            exceeded: Cell::new(false),
        }
    }

    /// A counter that trips once more than `budget` ops are charged.
    pub fn with_budget(budget: u64) -> Self {
        OpCounter {
            spent: Cell::new(0),
            budget: Some(budget),
            exceeded: Cell::new(false),
        }
    }

    /// Charges `n` ops. On exceeding the budget the counter latches the
    /// exceeded flag and reports [`BudgetExceeded`].
    pub fn charge(&self, n: u64) -> Result<(), BudgetExceeded> {
        let spent = self.spent.get().saturating_add(n);
        self.spent.set(spent);
        if let Some(b) = self.budget {
            if spent > b {
                self.exceeded.set(true);
                return Err(BudgetExceeded);
            }
        }
        Ok(())
    }

    /// Replays a recorded cost as one charge, but only when that cannot
    /// change what the counter observes: it has not tripped and the
    /// whole cost fits the budget. Charges are monotone, so the charges
    /// the cost was recorded from would then all have succeeded and
    /// left the counter in exactly this state. Returns false — having
    /// charged nothing — when the work must run for real so that it
    /// trips where it always did.
    pub fn replay(&self, cost: u64) -> bool {
        let spent = self.spent.get().saturating_add(cost);
        if self.exceeded.get() || self.budget.is_some_and(|b| spent > b) {
            return false;
        }
        self.spent.set(spent);
        true
    }

    /// Total ops charged so far (including any charge that tripped).
    pub fn spent(&self) -> u64 {
        self.spent.get()
    }

    /// Whether the budget has ever been exceeded since the last reset.
    pub fn exceeded(&self) -> bool {
        self.exceeded.get()
    }

    /// The configured budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Clears the spent count and the exceeded latch.
    pub fn reset(&self) {
        self.spent.set(0);
        self.exceeded.set(false);
    }
}

impl Default for OpCounter {
    fn default() -> Self {
        OpCounter::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let c = OpCounter::unlimited();
        assert!(c.charge(u64::MAX).is_ok());
        assert!(!c.exceeded());
        assert_eq!(c.spent(), u64::MAX);
    }

    #[test]
    fn budget_latches() {
        let c = OpCounter::with_budget(10);
        assert!(c.charge(10).is_ok());
        assert!(!c.exceeded());
        assert_eq!(c.charge(1), Err(BudgetExceeded));
        assert!(c.exceeded());
        // Still exceeded even for a free charge.
        assert_eq!(c.charge(0), Err(BudgetExceeded));
        c.reset();
        assert!(!c.exceeded());
        assert_eq!(c.spent(), 0);
        assert!(c.charge(5).is_ok());
    }

    #[test]
    fn replay_charges_only_what_fits_untripped() {
        let c = OpCounter::with_budget(10);
        assert!(c.replay(4));
        assert!(c.replay(6));
        assert_eq!(c.spent(), 10);
        // One more op would trip: nothing is charged, nothing latches.
        assert!(!c.replay(1));
        assert_eq!(c.spent(), 10);
        assert!(!c.exceeded());
        assert!(c.replay(0));
        // Once tripped, nothing replays — not even a free charge.
        assert!(c.charge(1).is_err());
        assert!(!c.replay(0));
        assert_eq!(c.spent(), 11);
        let u = OpCounter::unlimited();
        assert!(u.replay(u64::MAX));
        assert!(u.replay(5));
        assert_eq!(u.spent(), u64::MAX);
    }

    #[test]
    fn spent_saturates() {
        let c = OpCounter::unlimited();
        c.charge(u64::MAX).unwrap();
        c.charge(10).unwrap();
        assert_eq!(c.spent(), u64::MAX);
    }
}
