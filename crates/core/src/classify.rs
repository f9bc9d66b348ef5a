//! Per-loop classification into the paper's §3 hindrance taxonomy.

use std::collections::HashMap;

use apar_analysis::ddtest::{DdOutcome, Hindrance};
/// The Figure 5 categories, plus bookkeeping variants for loops the
/// paper's target set would exclude.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Classification {
    /// Parallelized by the compiler under the active profile.
    Autoparallelized,
    /// Blocked by assumed aliasing between names over shared storage.
    Aliasing,
    /// Blocked by variables with no known range (input-deck values).
    Rangeless,
    /// Blocked by subscripted subscripts.
    Indirection,
    /// Blocked by symbolic expressions beyond the engine.
    SymbolAnalysis,
    /// Blocked by declared/used shape mismatches across boundaries.
    AccessRepresentation,
    /// Analysis exceeded the op budget.
    Complexity,
    /// A genuine data dependence (not a target-loop category).
    RealDependence,
    /// I/O or control flow escaping the loop.
    Control,
}

impl Classification {
    /// Every category, in declaration order.
    pub const ALL: [Classification; 9] = [
        Classification::Autoparallelized,
        Classification::Aliasing,
        Classification::Rangeless,
        Classification::Indirection,
        Classification::SymbolAnalysis,
        Classification::AccessRepresentation,
        Classification::Complexity,
        Classification::RealDependence,
        Classification::Control,
    ];

    /// Display label matching the figure legend.
    pub fn label(&self) -> &'static str {
        match self {
            Classification::Autoparallelized => "autoparallelized",
            Classification::Aliasing => "aliasing",
            Classification::Rangeless => "rangeless",
            Classification::Indirection => "indirection",
            Classification::SymbolAnalysis => "symbol analysis",
            Classification::AccessRepresentation => "access representation",
            Classification::Complexity => "complexity",
            Classification::RealDependence => "real dependence",
            Classification::Control => "control",
        }
    }
}

/// Derives a loop's classification from its dependence outcome and the
/// scalar verdicts. `leftover_scalars` are scalars written in the loop
/// that are neither privatizable nor reductions/inductions.
pub fn classify(
    dd: &DdOutcome,
    has_io_or_escape: bool,
    leftover_scalars: usize,
    deps_dismissed_by_privatization: &dyn Fn(&apar_analysis::ddtest::Dependence) -> bool,
) -> Classification {
    if has_io_or_escape {
        return Classification::Control;
    }
    if dd.budget_exceeded {
        return Classification::Complexity;
    }
    let mut counts: HashMap<Hindrance, usize> = HashMap::new();
    for d in &dd.dependences {
        if deps_dismissed_by_privatization(d) {
            continue;
        }
        *counts.entry(d.why).or_insert(0) += 1;
    }
    if counts.is_empty() && leftover_scalars == 0 {
        return Classification::Autoparallelized;
    }
    // Priority-ordered: the category names the *primary* missing
    // technique, as the paper's manual categorization does. `Real`
    // dependences dominate only when nothing else blocks.
    let priority = [
        Hindrance::Complexity,
        Hindrance::Aliasing,
        Hindrance::Indirection,
        Hindrance::Rangeless,
        Hindrance::AccessRepresentation,
        Hindrance::CallOpaque,
        Hindrance::SymbolAnalysis,
    ];
    let chosen: Option<Hindrance> = priority
        .iter()
        .find(|h| counts.contains_key(h))
        .copied();
    match chosen {
        Some(Hindrance::Indirection) => Classification::Indirection,
        Some(Hindrance::Aliasing) => Classification::Aliasing,
        Some(Hindrance::Rangeless) => Classification::Rangeless,
        Some(Hindrance::AccessRepresentation) | Some(Hindrance::CallOpaque) => {
            Classification::AccessRepresentation
        }
        Some(Hindrance::SymbolAnalysis) => Classification::SymbolAnalysis,
        Some(Hindrance::Complexity) => Classification::Complexity,
        _ => {
            if counts.contains_key(&Hindrance::Real) || leftover_scalars > 0 {
                Classification::RealDependence
            } else {
                Classification::Autoparallelized
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apar_analysis::ddtest::{Dependence, DependenceKind};
    use apar_minifort::StmtId;

    fn dep(why: Hindrance) -> Dependence {
        Dependence {
            array: "A".into(),
            src: StmtId(0),
            dst: StmtId(1),
            kind: DependenceKind::Flow,
            why,
        }
    }

    fn outcome(deps: Vec<Dependence>) -> DdOutcome {
        DdOutcome {
            independent: deps.is_empty(),
            dependences: deps,
            pairs_tested: 1,
            budget_exceeded: false,
        }
    }

    #[test]
    fn empty_is_autoparallelized() {
        let c = classify(&outcome(vec![]), false, 0, &|_| false);
        assert_eq!(c, Classification::Autoparallelized);
    }

    #[test]
    fn io_wins_over_everything() {
        let c = classify(&outcome(vec![dep(Hindrance::Aliasing)]), true, 0, &|_| false);
        assert_eq!(c, Classification::Control);
    }

    #[test]
    fn budget_gives_complexity() {
        let mut o = outcome(vec![]);
        o.budget_exceeded = true;
        assert_eq!(classify(&o, false, 0, &|_| false), Classification::Complexity);
    }

    #[test]
    fn priority_order_names_primary_technique() {
        let o = outcome(vec![
            dep(Hindrance::SymbolAnalysis),
            dep(Hindrance::Rangeless),
            dep(Hindrance::SymbolAnalysis),
        ]);
        assert_eq!(classify(&o, false, 0, &|_| false), Classification::Rangeless);
    }

    #[test]
    fn priority_breaks_ties() {
        let o = outcome(vec![dep(Hindrance::Aliasing), dep(Hindrance::SymbolAnalysis)]);
        assert_eq!(classify(&o, false, 0, &|_| false), Classification::Aliasing);
    }

    #[test]
    fn privatization_dismissal_recovers_parallelism() {
        let o = outcome(vec![dep(Hindrance::Real)]);
        let c = classify(&o, false, 0, &|d| d.array == "A");
        assert_eq!(c, Classification::Autoparallelized);
    }

    #[test]
    fn leftover_scalars_are_real_dependences() {
        let c = classify(&outcome(vec![]), false, 1, &|_| false);
        assert_eq!(c, Classification::RealDependence);
    }

    #[test]
    fn call_opaque_maps_to_access_representation() {
        let o = outcome(vec![dep(Hindrance::CallOpaque)]);
        assert_eq!(
            classify(&o, false, 0, &|_| false),
            Classification::AccessRepresentation
        );
    }
}
