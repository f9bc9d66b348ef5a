//! Compile reports: the data behind Figures 2 and 3.

use std::collections::HashMap;
use std::time::Duration;

use apar_analysis::cache::DetourStats;
use apar_minifort::{Diag, StmtId};

/// The compiler passes of Figure 2's legend.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PassId {
    DataDependence,
    Privatization,
    InductionSubstitution,
    InlineExpansion,
    GsaTranslation,
    InterproceduralConstProp,
    Reduction,
    Others,
}

impl PassId {
    /// Every pass, in the figure's legend order.
    pub const ALL: [PassId; 8] = [
        PassId::DataDependence,
        PassId::Privatization,
        PassId::InductionSubstitution,
        PassId::InlineExpansion,
        PassId::GsaTranslation,
        PassId::InterproceduralConstProp,
        PassId::Reduction,
        PassId::Others,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            PassId::DataDependence => "data-dependence test",
            PassId::Privatization => "privatization",
            PassId::InductionSubstitution => "induction variable substitution",
            PassId::InlineExpansion => "inline expansion",
            PassId::GsaTranslation => "GSA translation",
            PassId::InterproceduralConstProp => "interprocedural constant propagation",
            PassId::Reduction => "reduction",
            PassId::Others => "others",
        }
    }
}

/// Wall time and deterministic op count of one pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassCost {
    pub seconds: f64,
    pub ops: u64,
}

/// How much of the pipeline a compile was asked to run. Under overload
/// the service degrades work rather than queueing it unboundedly:
/// `Full` is the normal pipeline and `ParseOnly` stops after the
/// recovering front end (parse + diagnose, every loop ledgered as
/// skipped) at 6–23 % of a full compile's wall. There is no tier in
/// between: analysis cost is per-loop inlining plus dependence
/// testing, and no subset of it sheds enough to be worth a class
/// (EXPERIMENTS.md, "Degrade tiers").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DegradeTier {
    /// The full analysis pipeline.
    #[default]
    Full,
    /// Front end only: parse, diagnose, count loops; no analysis.
    ParseOnly,
}

impl DegradeTier {
    pub fn label(&self) -> &'static str {
        match self {
            DegradeTier::Full => "full",
            DegradeTier::ParseOnly => "parse-only",
        }
    }
}

/// Why the per-loop analysis stage could not analyze a loop. These are
/// hindrances in their own right: a skipped loop stays serial, so it
/// must stay visible in the report rather than silently vanishing from
/// the Figure 5 accounting.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum SkipReason {
    /// The loop lives in a `!LANG C` unit and the profile lacks the
    /// multilingual capability (§2.4): the compiler cannot see inside.
    ForeignLanguage,
    /// The loop's unit was not found in the resolved program.
    UnitMissing,
    /// Inlining removed the loop's unit from the analyzed copy (fully
    /// inlined away): its loops are no longer candidates.
    InlinedAway,
    /// The loop header could not be located in the analyzed program.
    HeaderMissing,
    /// An analysis pass panicked while working on this loop. The panic
    /// was contained by the per-loop sandbox: only this loop degrades
    /// (to serial, `Complexity` for target accounting) and the rest of
    /// the compile proceeds untouched.
    InternalError {
        /// The pass that was running when the panic fired.
        pass: PassId,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The analysis proved the loop parallel but the codegen backend
    /// could not emit a runnable directive for it (escaping control
    /// flow, assumed-size private array, non-scalar reduction); the
    /// loop was emitted serial with the detail as its reason comment.
    /// Recorded by `compile_and_emit`, never by plain `compile`.
    NotEmittable {
        /// Which runtime restriction blocked the directive.
        detail: String,
    },
    /// The request's wall-clock deadline expired before this loop was
    /// analyzed. The compile degraded cooperatively: completed loops
    /// kept their reports, the rest landed here.
    DeadlineExpired,
    /// The compile ran at a degraded tier that does not perform the
    /// analysis this loop would have needed (the parse-only tier).
    Degraded {
        /// The tier that was in force.
        tier: DegradeTier,
    },
}

impl SkipReason {
    pub fn label(&self) -> &'static str {
        match self {
            SkipReason::ForeignLanguage => "foreign language",
            SkipReason::UnitMissing => "unit missing",
            SkipReason::InlinedAway => "inlined away",
            SkipReason::HeaderMissing => "header missing",
            SkipReason::InternalError { .. } => "internal error",
            SkipReason::NotEmittable { .. } => "not emittable",
            SkipReason::DeadlineExpired => "deadline expired",
            SkipReason::Degraded { .. } => "degraded",
        }
    }
}

/// A loop the per-loop stage skipped, with its provenance, so reports
/// account for every loop the forest discovered.
#[derive(Clone, Debug)]
pub struct SkippedLoop {
    pub unit: String,
    pub stmt: StmtId,
    /// `!$TARGET` marker, when the skipped loop was a target loop.
    pub target: Option<String>,
    pub reason: SkipReason,
}

/// Aggregate compile-time report for one application.
#[derive(Clone, Debug, Default)]
pub struct CompileReport {
    pub app: String,
    pub profile: String,
    /// Executable statement count (Figure 2's denominator).
    pub statements: usize,
    pub units: usize,
    pub loops: usize,
    pub target_loops: usize,
    pub per_pass: HashMap<PassId, PassCost>,
    /// Loops the per-loop stage could not analyze, with the reason —
    /// explicit entries instead of silent disappearance.
    pub skipped: Vec<SkippedLoop>,
    /// Frontend diagnostics recovered from (recovering mode only):
    /// garbled lines the lexer skipped, statements the parser dropped,
    /// units resolution rejected. A strict compile has none.
    pub diags: Vec<Diag>,
    /// Units the recovering frontend dropped entirely (unparsable or
    /// unresolvable). The rest of the suite compiled without them.
    pub dropped_units: Vec<String>,
    /// True when the request's deadline expired mid-compile: at least
    /// one loop was ledgered as `DeadlineExpired` instead of analyzed.
    pub deadline_expired: bool,
    /// The degraded tier this compile ran at, when not `Full`.
    pub degrade: Option<DegradeTier>,
    /// What the call-bearing loops' inline detours came to. Diagnostic:
    /// loops spliced from a loop-record store take no detour, so this is
    /// not part of [`crate::CompileResult::report_signature`].
    pub detour: DetourStats,
}

impl CompileReport {
    /// Adds cost to a pass bucket.
    pub fn charge(&mut self, pass: PassId, wall: Duration, ops: u64) {
        let e = self.per_pass.entry(pass).or_default();
        e.seconds += wall.as_secs_f64();
        e.ops += ops;
    }

    /// Total compile seconds.
    pub fn total_seconds(&self) -> f64 {
        self.per_pass.values().map(|c| c.seconds).sum()
    }

    /// Total symbolic ops.
    pub fn total_ops(&self) -> u64 {
        self.per_pass.values().map(|c| c.ops).sum()
    }

    /// Seconds per executable statement (Figure 2's columns).
    pub fn seconds_per_statement(&self) -> f64 {
        if self.statements == 0 {
            0.0
        } else {
            self.total_seconds() / self.statements as f64
        }
    }

    /// Ops per executable statement (deterministic Figure 2 analog).
    pub fn ops_per_statement(&self) -> f64 {
        if self.statements == 0 {
            0.0
        } else {
            self.total_ops() as f64 / self.statements as f64
        }
    }

    /// Fraction of total ops per pass (Figure 3, deterministic form).
    pub fn ops_fractions(&self) -> Vec<(PassId, f64)> {
        let total = self.total_ops().max(1) as f64;
        PassId::ALL
            .iter()
            .map(|&p| {
                let ops = self.per_pass.get(&p).map_or(0, |c| c.ops) as f64;
                (p, ops / total)
            })
            .collect()
    }

    /// Histogram of skip reasons, in first-seen order.
    pub fn skip_histogram(&self) -> Vec<(SkipReason, usize)> {
        let mut counts: Vec<(SkipReason, usize)> = Vec::new();
        for s in &self.skipped {
            match counts.iter_mut().find(|(r, _)| *r == s.reason) {
                Some((_, n)) => *n += 1,
                None => counts.push((s.reason.clone(), 1)),
            }
        }
        counts
    }

    /// Loops the panic sandbox degraded (`SkipReason::InternalError`).
    pub fn panicked_loops(&self) -> usize {
        self.skipped
            .iter()
            .filter(|s| matches!(s.reason, SkipReason::InternalError { .. }))
            .count()
    }

    /// Fraction of total seconds per pass (Figure 3 as published).
    pub fn time_fractions(&self) -> Vec<(PassId, f64)> {
        let total = self.total_seconds().max(f64::MIN_POSITIVE);
        PassId::ALL
            .iter()
            .map(|&p| {
                let s = self.per_pass.get(&p).map_or(0.0, |c| c.seconds);
                (p, s / total)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut r = CompileReport {
            statements: 100,
            ..Default::default()
        };
        r.charge(PassId::DataDependence, Duration::from_millis(200), 600);
        r.charge(PassId::DataDependence, Duration::from_millis(300), 400);
        r.charge(PassId::Others, Duration::from_millis(500), 0);
        assert!((r.total_seconds() - 1.0).abs() < 1e-9);
        assert_eq!(r.total_ops(), 1000);
        assert!((r.seconds_per_statement() - 0.01).abs() < 1e-12);
        assert!((r.ops_per_statement() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut r = CompileReport::default();
        r.charge(PassId::DataDependence, Duration::from_secs(3), 30);
        r.charge(PassId::Privatization, Duration::from_secs(1), 10);
        let fs = r.time_fractions();
        let sum: f64 = fs.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let fo = r.ops_fractions();
        let dd = fo
            .iter()
            .find(|(p, _)| *p == PassId::DataDependence)
            .unwrap()
            .1;
        assert!((dd - 0.75).abs() < 1e-9);
    }
}
